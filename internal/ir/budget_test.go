package ir_test

import (
	"runtime"
	"testing"
	"time"

	"reef/internal/ir"
	"reef/internal/topics"
	"reef/internal/websim"
)

// TestCorpusBytesPerPair bounds the live heap the corpus costs per indexed
// (document, term) pair, on the page text of the attention benchmark's
// web: a synthetic web at 0.2x the default server counts (seed 2006). The
// analyzed documents AddText returns are dropped, as the server drops
// them, so only what the corpus keeps counts.
func TestCorpusBytesPerPair(t *testing.T) {
	const maxBytesPerPair = 20
	wcfg := websim.DefaultConfig(2006, time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC))
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * 0.2)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * 0.2)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * 0.2)
	web := websim.Generate(wcfg, topics.NewModel(2006, 16, 50, 80))
	var ids, texts []string
	for _, s := range web.Servers(websim.KindContent) {
		for path, p := range s.Pages {
			ids = append(ids, s.URL(path))
			texts = append(texts, p.Text)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := ir.NewCorpus()
	pairs := 0
	for i, id := range ids {
		pairs += len(c.AddText(id, texts[i]).Terms)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	runtime.KeepAlive(texts)
	runtime.KeepAlive(c)

	if c.N() != len(ids) || pairs == 0 {
		t.Fatalf("indexed %d documents with %d pairs, want %d documents", c.N(), pairs, len(ids))
	}
	perPair := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(pairs)
	t.Logf("%d documents, %d pairs, %d B/pair", c.N(), pairs, perPair)
	if perPair > maxBytesPerPair {
		t.Errorf("indexed pairs cost %d B each, want <= %d", perPair, maxBytesPerPair)
	}
}
