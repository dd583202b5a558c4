package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func newTestCorpus() *Corpus {
	c := NewCorpus()
	c.AddText("sports1", "football match championship goal striker football")
	c.AddText("sports2", "basketball game playoff score court")
	c.AddText("politics1", "election parliament vote minister policy")
	c.AddText("politics2", "election campaign debate candidate vote")
	c.AddText("tech1", "software protocol network router packet")
	return c
}

// scoreOf returns the document's score in the full ranking of query.
func scoreOf(t *testing.T, s *BM25, query map[string]float64, id string) float64 {
	t.Helper()
	for _, r := range s.Rank(query) {
		if r.ID == id {
			return r.Score
		}
	}
	t.Fatalf("document %q not ranked", id)
	return 0
}

func TestBM25RanksRelevantFirst(t *testing.T) {
	c := newTestCorpus()
	s := NewBM25(c, DefaultBM25)
	q := map[string]float64{Stem("election"): 1, Stem("vote"): 1}
	ranked := s.Rank(q)
	if ranked[0].ID != "politics1" && ranked[0].ID != "politics2" {
		t.Errorf("top result = %q, want a politics doc", ranked[0].ID)
	}
	if ranked[1].ID != "politics1" && ranked[1].ID != "politics2" {
		t.Errorf("second result = %q, want the other politics doc", ranked[1].ID)
	}
	// Non-matching docs score zero.
	last := ranked[len(ranked)-1]
	if last.Score != 0 {
		t.Errorf("non-matching doc score = %v, want 0", last.Score)
	}
}

func TestBM25TermFrequencySaturation(t *testing.T) {
	c := NewCorpus()
	c.AddText("once", "keyword filler filler filler filler")
	c.AddText("many", "keyword keyword keyword keyword keyword filler filler filler filler filler filler filler filler filler filler filler filler filler filler filler")
	// Enough non-matching docs that IDF(keyword) clears the zero floor.
	for i := 0; i < 8; i++ {
		c.AddText(string(rune('p'+i)), "other stuff entirely here")
	}
	s := NewBM25(c, DefaultBM25)
	kw := Stem("keyword")
	q := map[string]float64{kw: 1}
	so, sm := scoreOf(t, s, q, "once"), scoreOf(t, s, q, "many")
	if so <= 0 || sm <= 0 {
		t.Fatalf("scores = %v, %v; want positive", so, sm)
	}
	// tf saturates: 5x the tf must not give 5x the score.
	if sm > 3*so {
		t.Errorf("no tf saturation: once=%v many=%v", so, sm)
	}
}

func TestBM25IDFFloor(t *testing.T) {
	c := NewCorpus()
	c.AddText("d1", "common word")
	c.AddText("d2", "common word")
	c.AddText("d3", "common word")
	s := NewBM25(c, DefaultBM25)
	if idf := s.IDF(Stem("common")); idf != 0 {
		t.Errorf("IDF of ubiquitous term = %v, want 0 (floored)", idf)
	}
	if idf := s.IDF("unseen"); idf <= 0 {
		t.Errorf("IDF of unseen term = %v, want > 0", idf)
	}
}

func TestBM25QueryWeights(t *testing.T) {
	c := newTestCorpus()
	s := NewBM25(c, DefaultBM25)
	low := scoreOf(t, s, map[string]float64{Stem("protocol"): 0.1}, "tech1")
	high := scoreOf(t, s, map[string]float64{Stem("protocol"): 1.0}, "tech1")
	if math.Abs(high-10*low) > 1e-9 {
		t.Errorf("weights not linear: low=%v high=%v", low, high)
	}
}

func TestBM25DeterministicTieBreak(t *testing.T) {
	c := NewCorpus()
	c.AddText("b", "alpha beta")
	c.AddText("a", "alpha beta")
	c.AddText("c", "gamma delta")
	s := NewBM25(c, DefaultBM25)
	r1 := s.Rank(map[string]float64{Stem("alpha"): 1})
	r2 := s.Rank(map[string]float64{Stem("alpha"): 1})
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatal("ranking not deterministic")
		}
	}
	if r1[0].ID != "a" || r1[1].ID != "b" {
		t.Errorf("tie not broken by ID: %v", r1)
	}
}

// TestRankTopMatchesRank checks the partial sort against the full ranking
// over a randomized corpus, across k values that exercise the heap path,
// the zero-fill fallback, and the k >= N shortcut.
func TestRankTopMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	c := NewCorpus()
	for i := 0; i < 120; i++ {
		text := ""
		for j := 0; j < 3+rng.Intn(12); j++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		c.AddText(fmt.Sprintf("doc%03d", i), text)
	}
	s := NewBM25(c, DefaultBM25)
	queries := []map[string]float64{
		{Stem("alpha"): 1, Stem("gamma"): 0.5},
		{Stem("zeta"): 2},
		{"unseen-term": 1}, // nothing matches: zero-fill fallback
	}
	for qi, q := range queries {
		full := s.Rank(q)
		for _, k := range []int{1, 3, 10, 60, 119, 120, 500} {
			top := s.RankTop(q, k)
			want := k
			if want > len(full) {
				want = len(full)
			}
			if len(top) != want {
				t.Fatalf("query %d k=%d: got %d results, want %d", qi, k, len(top), want)
			}
			for i := range top {
				if top[i] != full[i] {
					t.Fatalf("query %d k=%d: RankTop[%d] = %+v, Rank[%d] = %+v", qi, k, i, top[i], i, full[i])
				}
			}
		}
	}
	if got := s.RankTop(queries[0], 0); got != nil {
		t.Errorf("RankTop(k=0) = %v, want nil", got)
	}
}

// TestCorpusReplaceUpdatesPostings checks that replacing a document
// rewrites its postings so stale term entries cannot resurface in rankings.
func TestCorpusReplaceUpdatesPostings(t *testing.T) {
	c := NewCorpus()
	c.AddText("d1", "alpha alpha beta")
	c.AddText("d2", "beta gamma")
	c.AddText("d1", "gamma gamma") // replace: alpha/beta postings must go
	if ps := c.Postings(Stem("alpha")); len(ps) != 0 {
		t.Errorf("stale alpha postings after replace: %v", ps)
	}
	ps := c.Postings(Stem("gamma"))
	if len(ps) != 2 {
		t.Fatalf("gamma postings = %v, want 2 entries", ps)
	}
	wantTF := map[string]uint32{"d1": 2, "d2": 1}
	for _, p := range ps {
		id := c.IDs()[p.Slot]
		if wantTF[id] != p.TF {
			t.Errorf("posting tf %d disagrees with doc %q tf %d", p.TF, id, wantTF[id])
		}
	}
	s := NewBM25(c, DefaultBM25)
	full := s.Rank(map[string]float64{Stem("gamma"): 1})
	if len(full) != 2 {
		t.Fatalf("corpus size after replace = %d, want 2", len(full))
	}
}

func TestBM25ZeroParamsDefault(t *testing.T) {
	c := newTestCorpus()
	s := NewBM25(c, BM25Params{})
	if s.params != DefaultBM25 {
		t.Errorf("params = %+v, want default", s.params)
	}
}

func TestBM25EmptyCorpusAndDocs(t *testing.T) {
	c := NewCorpus()
	s := NewBM25(c, DefaultBM25)
	if got := s.Rank(map[string]float64{"x": 1}); len(got) != 0 {
		t.Error("Rank on empty corpus returned results")
	}
	c.AddText("empty", "")
	if got := scoreOf(t, s, map[string]float64{"x": 1}, "empty"); got != 0 {
		t.Errorf("score of empty doc = %v", got)
	}
}
