package ir

import (
	"math"
	"sort"
)

// TermScore is a term with its selection value.
type TermScore struct {
	Term  string
	Score float64
}

// OfferWeight computes Robertson's offer weight (selection value) of a term
// for query expansion / profile construction:
//
//	OW(t) = r * RW(t)
//	RW(t) = log( ((r+0.5)(N-n-R+r+0.5)) / ((n-r+0.5)(R-r+0.5)) )
//
// where r is the number of "relevant" documents containing t, R the number
// of relevant documents, n the document frequency of t, and N the corpus
// size (Robertson & Spärck Jones, 1997). In Reef the "relevant" set is the
// set of pages the user visited.
func OfferWeight(r, R, n, N int) float64 {
	return float64(r) * relevanceWeight(r, R, n, N)
}

// relevanceWeight computes the RSJ relevance weight with the log argument
// clamped: a term so common that N-n-R+r+0.5 goes non-positive carries no
// positive evidence and gets a strongly negative weight instead of NaN.
func relevanceWeight(r, R, n, N int) float64 {
	rf, Rf, nf, Nf := float64(r), float64(R), float64(n), float64(N)
	num := (rf + 0.5) * (Nf - nf - Rf + rf + 0.5)
	den := (nf - rf + 0.5) * (Rf - rf + 0.5)
	if den <= 0 {
		return 0
	}
	arg := num / den
	if arg <= 0 {
		arg = 1e-6
	}
	return math.Log(arg)
}

// ModifiedOfferWeight is the paper's variant (footnote 1): "a modified
// version of Robertson's Offer Weight formula which integrates the term
// frequency measure into the ranking process". Instead of counting a
// visited page as a binary occurrence, the term's within-profile frequency
// tf dampened logarithmically scales the relevance weight, so terms the
// user saw often rank above terms that merely appear on many visited pages.
func ModifiedOfferWeight(tf, r, R, n, N int) float64 {
	if tf <= 0 || r <= 0 {
		return 0
	}
	rw := relevanceWeight(r, R, n, N)
	return (1 + math.Log(float64(tf))) * float64(r) * rw
}

// TermSelectionMode picks the formula used to rank candidate profile terms
// (ablation A1 in DESIGN.md).
type TermSelectionMode int

// Selection modes.
const (
	// SelectModifiedOW is the paper's choice: offer weight with term
	// frequency integrated.
	SelectModifiedOW TermSelectionMode = iota + 1
	// SelectPlainOW is Robertson's unmodified offer weight.
	SelectPlainOW
	// SelectRawTF ranks terms purely by attention-profile frequency.
	SelectRawTF
)

// String names the mode for report tables.
func (m TermSelectionMode) String() string {
	switch m {
	case SelectModifiedOW:
		return "modified-ow"
	case SelectPlainOW:
		return "plain-ow"
	case SelectRawTF:
		return "raw-tf"
	default:
		return "unknown"
	}
}

// TermStat is one attention-profile term's statistics over the documents a
// user attended to (the "relevant" set): TF is its total occurrence count,
// DF the number of attended documents containing it.
type TermStat struct {
	TF, DF uint32
}

// SelectTerms ranks the terms of a user attention profile against a
// background corpus and returns the top k terms by the chosen selection
// value.
//
//   - profile: term ID in corpus's dictionary -> the term's statistics
//     over the attended documents.
//   - R: number of attended documents.
//   - corpus: the background collection providing N and df.
//
// Ties break by term string.
func SelectTerms(profile map[uint32]TermStat, R int, corpus *Corpus, k int, mode TermSelectionMode) []TermScore {
	N := corpus.N()
	scored := make([]TermScore, 0, len(profile))
	for id, st := range profile {
		tf, r := int(st.TF), int(st.DF)
		n := len(corpus.postings[id])
		if n < r {
			// The background corpus may not contain every attended page;
			// clamp so the formula stays defined.
			n = r
		}
		var s float64
		switch mode {
		case SelectPlainOW:
			s = OfferWeight(r, R, n, N)
		case SelectRawTF:
			s = float64(tf)
		default:
			s = ModifiedOfferWeight(tf, r, R, n, N)
		}
		if s <= 0 {
			continue
		}
		scored = append(scored, TermScore{Term: corpus.terms[id], Score: s})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Term < scored[j].Term
	})
	if k > 0 && len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// QueryFromTerms converts selected terms into a weighted BM25 query.
// Weights are the normalized selection scores so that the strongest
// interest dominates but long tails still contribute.
func QueryFromTerms(terms []TermScore) map[string]float64 {
	if len(terms) == 0 {
		return map[string]float64{}
	}
	max := terms[0].Score
	for _, t := range terms {
		if t.Score > max {
			max = t.Score
		}
	}
	q := make(map[string]float64, len(terms))
	for _, t := range terms {
		if max > 0 {
			q[t.Term] = t.Score / max
		} else {
			q[t.Term] = 1
		}
	}
	return q
}
