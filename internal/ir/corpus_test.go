package ir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestCorpusStats(t *testing.T) {
	c := NewCorpus()
	c.AddText("d1", "football match tonight")
	c.AddText("d2", "football season begins")
	c.AddText("d3", "election results announced")

	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.DF(Stem("football")); got != 2 {
		t.Errorf("DF(football) = %d, want 2", got)
	}
	if got := c.DF(Stem("election")); got != 1 {
		t.Errorf("DF(election) = %d, want 1", got)
	}
	if got := c.DF("absent"); got != 0 {
		t.Errorf("DF(absent) = %d", got)
	}
	if got := c.AvgLen(); got != 3 {
		t.Errorf("AvgLen = %v, want 3", got)
	}
}

func TestCorpusReplace(t *testing.T) {
	c := NewCorpus()
	c.AddText("d1", "football football")
	c.AddText("d1", "election")
	if c.N() != 1 {
		t.Fatalf("N after replace = %d", c.N())
	}
	if got := c.DF(Stem("football")); got != 0 {
		t.Errorf("DF(football) after replace = %d", got)
	}
	if got := c.DF(Stem("election")); got != 1 {
		t.Errorf("DF(election) = %d", got)
	}
	if got := c.AvgLen(); got != 1 {
		t.Errorf("AvgLen = %v", got)
	}
	ps := c.Postings(Stem("election"))
	if len(ps) != 1 || c.IDs()[ps[0].Slot] != "d1" || ps[0].TF != 1 {
		t.Errorf("election postings after replace = %v, want one d1 entry with tf 1", ps)
	}
}

func TestCorpusEmpty(t *testing.T) {
	c := NewCorpus()
	if c.AvgLen() != 0 || c.N() != 0 {
		t.Error("empty corpus stats non-zero")
	}
	if len(c.IDs()) != 0 {
		t.Error("IDs on empty corpus found something")
	}
	if ps := c.Postings("x"); len(ps) != 0 {
		t.Errorf("postings on empty corpus = %v", ps)
	}
}

func TestCorpusIndexesEveryTerm(t *testing.T) {
	c := NewCorpus()
	c.AddText("d1", "zebra apple mango")
	for _, w := range []string{"zebra", "apple", "mango"} {
		ps := c.Postings(Stem(w))
		if len(ps) != 1 || ps[0] != (Posting{Slot: 0, TF: 1}) || c.DF(Stem(w)) != 1 {
			t.Errorf("%s: postings %v, DF %d; want one slot-0 posting with tf 1", w, ps, c.DF(Stem(w)))
		}
	}
}

func TestDocumentAnalysis(t *testing.T) {
	d := NewDocument("x", "The running runner runs")
	// "the" is a stopword; running/runner/runs conflate imperfectly but
	// "running"->"run" and "runs"->"run".
	if d.Len < 2 {
		t.Errorf("Len = %d, want >= 2", d.Len)
	}
	if d.Terms[Stem("running")] < 2 {
		t.Errorf("TF(run) = %d, want >= 2 (terms=%v)", d.Terms[Stem("running")], d.Terms)
	}
}

// corpusModel is a map-based reference corpus: documents in slot order,
// each a plain term-count map.
type corpusModel struct {
	ids   []string
	terms map[string]map[string]int
}

func (m *corpusModel) add(id string, terms map[string]int) {
	if _, ok := m.terms[id]; !ok {
		m.ids = append(m.ids, id)
	}
	m.terms[id] = terms
}

func (m *corpusModel) docLen(id string) int {
	n := 0
	for _, tf := range m.terms[id] {
		n += tf
	}
	return n
}

func (m *corpusModel) avgLen() float64 {
	if len(m.ids) == 0 {
		return 0
	}
	sum := 0
	for _, id := range m.ids {
		sum += m.docLen(id)
	}
	return float64(sum) / float64(len(m.ids))
}

// postings lists the term's (slot, tf) entries in slot order.
func (m *corpusModel) postings(term string) []Posting {
	var out []Posting
	for slot, id := range m.ids {
		if tf := m.terms[id][term]; tf > 0 {
			out = append(out, Posting{Slot: uint32(slot), TF: uint32(tf)})
		}
	}
	return out
}

// rank scores every document by BM25 straight from the definition,
// visiting query terms in sorted order.
func (m *corpusModel) rank(query map[string]float64) []Ranked {
	k1, b := DefaultBM25.K1, DefaultBM25.B
	N, avg := float64(len(m.ids)), m.avgLen()
	var qterms []string
	for term := range query {
		qterms = append(qterms, term)
	}
	sort.Strings(qterms)
	out := make([]Ranked, 0, len(m.ids))
	for _, id := range m.ids {
		r := Ranked{ID: id}
		for _, term := range qterms {
			tf := float64(m.terms[id][term])
			if tf == 0 || avg == 0 {
				continue
			}
			n := float64(len(m.postings(term)))
			idf := math.Max(0, math.Log((N-n+0.5)/(n+0.5)))
			norm := tf * (k1 + 1) / (tf + k1*(1-b+b*float64(m.docLen(id))/avg))
			r.Score += query[term] * idf * norm
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return rankedLess(out[i], out[j]) })
	return out
}

// sameRanking compares rankings by ID order, and by score up to the
// rounding that a different summation order of the query terms causes.
func sameRanking(got, want []Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9*math.Max(1, math.Abs(want[i].Score)) {
			return false
		}
	}
	return true
}

// TestCorpusMatchesModel drives the corpus and a map-based reference
// through one seeded sequence of adds and replacements — with term sets
// overlapping the old version, disjoint from it, or empty, and re-adds of
// IDs already replaced — and checks N, DF, AvgLen, Postings, Rank and
// RankTop against the reference after every step.
func TestCorpusMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
		"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"}
	randTerms := func(n int, skip map[string]int) map[string]int {
		out := make(map[string]int)
		for len(out) < n {
			term := vocab[rng.Intn(len(vocab))]
			if _, ok := skip[term]; !ok {
				out[term] = 1 + rng.Intn(5)
			}
		}
		return out
	}
	c := NewCorpus()
	s := NewBM25(c, DefaultBM25)
	m := &corpusModel{terms: make(map[string]map[string]int)}
	for step := 0; step < 300; step++ {
		id := fmt.Sprintf("d%02d", rng.Intn(30))
		old := m.terms[id]
		var terms map[string]int
		switch rng.Intn(4) {
		case 0: // empty
			terms = map[string]int{}
		case 1: // overlapping: keep some old terms with new counts, add new ones
			terms = randTerms(1+rng.Intn(3), nil)
			for term := range old {
				if rng.Intn(2) == 0 {
					terms[term] = 1 + rng.Intn(5)
				}
			}
		case 2: // disjoint from the old version
			terms = map[string]int{}
			if free := len(vocab) - len(old); free > 0 {
				terms = randTerms(1+rng.Intn(min(6, free)), old)
			}
		default:
			terms = randTerms(1+rng.Intn(8), nil)
		}
		c.Add(id, terms)
		m.add(id, terms)

		if c.N() != len(m.ids) || c.AvgLen() != m.avgLen() || !slices.Equal(c.IDs(), m.ids) {
			t.Fatalf("step %d: N %d AvgLen %v IDs %v, want %d %v %v", step, c.N(), c.AvgLen(), c.IDs(), len(m.ids), m.avgLen(), m.ids)
		}
		for _, term := range append(vocab, "unseen") {
			got := slices.Clone(c.Postings(term))
			slices.SortFunc(got, func(a, b Posting) int { return int(a.Slot) - int(b.Slot) })
			want := m.postings(term)
			if c.DF(term) != len(want) || !slices.Equal(got, want) {
				t.Fatalf("step %d: %s DF %d postings %v, want %d %v", step, term, c.DF(term), got, len(want), want)
			}
		}
		queries := []map[string]float64{
			{vocab[rng.Intn(len(vocab))]: 1},
			{vocab[rng.Intn(len(vocab))]: 1, vocab[rng.Intn(len(vocab))]: 0.37, vocab[rng.Intn(len(vocab))]: 0.113},
		}
		for _, q := range queries {
			want := m.rank(q)
			if got := s.Rank(q); !sameRanking(got, want) {
				t.Fatalf("step %d: Rank(%v) = %v, want %v", step, q, got, want)
			}
			for _, k := range []int{1, 3, 10, len(want), len(want) + 5} {
				if got := s.RankTop(q, k); !sameRanking(got, want[:min(k, len(want))]) {
					t.Fatalf("step %d: RankTop(%v, %d) = %v, want %v", step, q, k, got, want[:min(k, len(want))])
				}
			}
		}
	}
}
