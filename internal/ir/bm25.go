package ir

import (
	"math"
	"sort"
	"sync"
)

// BM25Params are the Okapi BM25 free parameters. The defaults follow the
// values the paper's footnote 2 describes as "trained from a previous
// experiment into user relevance feedback for video search" (Gurrin et al.,
// ECIR 2006); k1 in the usual 1.2–2.0 band and a moderate length
// normalization.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 is the parameter set used by the video case study.
var DefaultBM25 = BM25Params{K1: 1.2, B: 0.75}

// BM25 scores documents in a corpus against weighted-term queries. Scoring
// walks the corpus's inverted postings lists, so cost is proportional to
// the documents containing the query's terms, not the corpus size. Rank
// and RankTop are safe for concurrent use as long as the corpus is not
// mutated concurrently; per-call score buffers come from a pool.
type BM25 struct {
	corpus *Corpus
	params BM25Params
	bufs   sync.Pool // *scoreBuf
}

// scoreBuf is the reusable accumulation state of one Rank/RankTop call:
// a per-slot score array, a per-slot touched marker, and the list of
// touched slots used to reset both in O(touched).
type scoreBuf struct {
	scores  []float64
	mark    []bool
	touched []uint32
}

// NewBM25 builds a scorer over the corpus. Zero-valued params fall back to
// DefaultBM25.
func NewBM25(c *Corpus, p BM25Params) *BM25 {
	if p.K1 == 0 && p.B == 0 {
		p = DefaultBM25
	}
	s := &BM25{corpus: c, params: p}
	s.bufs.New = func() any { return new(scoreBuf) }
	return s
}

// getBuf returns a pooled buffer sized for n document slots, with scores
// zeroed and marks cleared.
func (s *BM25) getBuf(n int) *scoreBuf {
	sb := s.bufs.Get().(*scoreBuf)
	if len(sb.scores) < n {
		sb.scores = make([]float64, n)
		sb.mark = make([]bool, n)
	}
	return sb
}

// putBuf resets the touched slots and pools the buffer.
func (s *BM25) putBuf(sb *scoreBuf) {
	for _, slot := range sb.touched {
		sb.scores[slot] = 0
		sb.mark[slot] = false
	}
	sb.touched = sb.touched[:0]
	s.bufs.Put(sb)
}

// IDF returns the Robertson–Spärck Jones inverse document frequency with
// the standard +0.5 smoothing, floored at zero so very common terms cannot
// carry negative evidence.
func (s *BM25) IDF(term string) float64 {
	n := float64(s.corpus.DF(term))
	N := float64(s.corpus.N())
	idf := math.Log((N - n + 0.5) / (n + 0.5))
	if idf < 0 {
		return 0
	}
	return idf
}

// accumulate adds every query term's contributions into sb via the
// inverted postings lists, recording which slots were touched.
func (s *BM25) accumulate(query map[string]float64, sb *scoreBuf) {
	docs := s.corpus.docs
	k1, b := s.params.K1, s.params.B
	avg := s.corpus.AvgLen()
	if avg == 0 {
		return
	}
	for term, w := range query {
		if w == 0 {
			continue
		}
		idf := s.IDF(term)
		if idf == 0 {
			continue
		}
		for _, p := range s.corpus.Postings(term) {
			tf := float64(p.TF)
			norm := tf * (k1 + 1) / (tf + k1*(1-b+b*float64(docs[p.Slot].len)/avg))
			if !sb.mark[p.Slot] {
				sb.mark[p.Slot] = true
				sb.touched = append(sb.touched, p.Slot)
			}
			sb.scores[p.Slot] += w * idf * norm
		}
	}
}

// Ranked is one entry of a ranking.
type Ranked struct {
	ID    string
	Score float64
}

// rankedLess orders by descending score, ties broken by ascending ID for
// determinism. Rank and RankTop share it so their orders agree.
func rankedLess(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Rank scores every document and returns them ordered by descending score.
// Ties break by document ID for determinism.
func (s *BM25) Rank(query map[string]float64) []Ranked {
	docs := s.corpus.docs
	sb := s.getBuf(len(docs))
	s.accumulate(query, sb)
	out := make([]Ranked, len(docs))
	for i, d := range docs {
		out[i] = Ranked{ID: d.id, Score: sb.scores[i]}
	}
	s.putBuf(sb)
	sort.Slice(out, func(i, j int) bool { return rankedLess(out[i], out[j]) })
	return out
}

// RankTop returns the k best-scoring documents in the exact order Rank
// would list them, without sorting the whole corpus: scored documents are
// partially selected through a bounded min-heap, O(matched · log k)
// instead of O(N log N).
func (s *BM25) RankTop(query map[string]float64, k int) []Ranked {
	docs := s.corpus.docs
	if k <= 0 {
		return nil
	}
	if k >= len(docs) {
		return s.Rank(query)
	}
	sb := s.getBuf(len(docs))
	s.accumulate(query, sb)

	// The heap shortcut requires every touched score to beat the implicit
	// zero score of untouched documents; too few touched documents (or a
	// non-positive score, possible with negative query weights) would pull
	// zero-score documents into the top k in ID order, so fall back to the
	// full ranking for exactness.
	usable := len(sb.touched) >= k
	if usable {
		for _, slot := range sb.touched {
			if sb.scores[slot] <= 0 {
				usable = false
				break
			}
		}
	}
	if !usable {
		s.putBuf(sb)
		return s.Rank(query)[:k]
	}

	// Min-heap of the k best seen so far; heap[0] is the current worst.
	heap := make([]Ranked, 0, k)
	worse := func(a, b Ranked) bool { return rankedLess(b, a) }
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && worse(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && worse(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				break
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for _, slot := range sb.touched {
		r := Ranked{ID: docs[slot].id, Score: sb.scores[slot]}
		if len(heap) < k {
			heap = append(heap, r)
			siftUp(len(heap) - 1)
		} else if worse(heap[0], r) {
			heap[0] = r
			siftDown(0)
		}
	}
	s.putBuf(sb)
	sort.Slice(heap, func(i, j int) bool { return rankedLess(heap[i], heap[j]) })
	return heap
}
