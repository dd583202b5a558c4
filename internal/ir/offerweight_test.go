package ir

import (
	"math"
	"testing"
)

func TestOfferWeightPrefersDiscriminativeTerms(t *testing.T) {
	// Term A: in 5 of 10 relevant docs, rare overall (10 of 1000).
	// Term B: in 5 of 10 relevant docs, common overall (500 of 1000).
	a := OfferWeight(5, 10, 10, 1000)
	b := OfferWeight(5, 10, 500, 1000)
	if a <= b {
		t.Errorf("OW rare=%v <= OW common=%v", a, b)
	}
}

func TestOfferWeightScalesWithRelevantCount(t *testing.T) {
	lo := OfferWeight(2, 10, 20, 1000)
	hi := OfferWeight(8, 10, 20, 1000)
	if hi <= lo {
		t.Errorf("OW r=8 (%v) <= OW r=2 (%v)", hi, lo)
	}
}

func TestModifiedOfferWeightIntegratesTF(t *testing.T) {
	base := ModifiedOfferWeight(1, 5, 10, 20, 1000)
	boosted := ModifiedOfferWeight(10, 5, 10, 20, 1000)
	if boosted <= base {
		t.Errorf("MOW tf=10 (%v) <= MOW tf=1 (%v)", boosted, base)
	}
	// tf=1 must reduce to plain OW.
	if math.Abs(base-OfferWeight(5, 10, 20, 1000)) > 1e-12 {
		t.Errorf("MOW(tf=1) = %v != OW = %v", base, OfferWeight(5, 10, 20, 1000))
	}
	// The tf boost is logarithmic, not linear.
	if boosted > 5*base {
		t.Errorf("tf boost too aggressive: %v vs %v", boosted, base)
	}
}

func TestModifiedOfferWeightDegenerate(t *testing.T) {
	if got := ModifiedOfferWeight(0, 5, 10, 20, 1000); got != 0 {
		t.Errorf("MOW(tf=0) = %v", got)
	}
	if got := ModifiedOfferWeight(3, 0, 10, 20, 1000); got != 0 {
		t.Errorf("MOW(r=0) = %v", got)
	}
}

func TestSelectTermsTopK(t *testing.T) {
	corpus := NewCorpus()
	// Background: 20 docs of common chatter, 2 docs mentioning "quark".
	for i := 0; i < 20; i++ {
		corpus.AddText(string(rune('a'+i)), "weather traffic common chatter")
	}
	corpus.AddText("q1", "quark physics")
	corpus.AddText("q2", "quark collider")

	profile := map[uint32]TermStat{
		corpus.Intern(Stem("quark")):   {TF: 8, DF: 4},
		corpus.Intern(Stem("physics")): {TF: 3, DF: 2},
		corpus.Intern(Stem("common")):  {TF: 2, DF: 2},
	}
	got := SelectTerms(profile, 5, corpus, 2, SelectModifiedOW)
	if len(got) != 2 {
		t.Fatalf("SelectTerms returned %d terms, want 2", len(got))
	}
	if got[0].Term != Stem("quark") {
		t.Errorf("top term = %q, want quark (scores: %v)", got[0].Term, got)
	}
	// Scores must be descending.
	if got[0].Score < got[1].Score {
		t.Errorf("scores not descending: %v", got)
	}
}

func TestSelectTermsModes(t *testing.T) {
	corpus := NewCorpus()
	for i := 0; i < 50; i++ {
		corpus.AddText(string(rune('a'))+string(rune('a'+i%26))+string(rune('a'+i/26)), "filler text body")
	}
	corpus.AddText("r", "rare signal")
	profile := map[uint32]TermStat{
		corpus.Intern(Stem("filler")): {TF: 50, DF: 5}, // frequent but ubiquitous
		corpus.Intern(Stem("rare")):   {TF: 2, DF: 2},  // infrequent but discriminative
	}

	tf := SelectTerms(profile, 5, corpus, 1, SelectRawTF)
	if tf[0].Term != Stem("filler") {
		t.Errorf("raw-tf top = %q, want filler", tf[0].Term)
	}
	ow := SelectTerms(profile, 5, corpus, 1, SelectPlainOW)
	if ow[0].Term != Stem("rare") {
		t.Errorf("plain-ow top = %q, want rare", ow[0].Term)
	}
}

func TestSelectTermsKZeroReturnsAll(t *testing.T) {
	corpus := NewCorpus()
	corpus.AddText("d", "alpha beta gamma")
	profile := map[uint32]TermStat{corpus.Intern(Stem("alpha")): {TF: 1, DF: 1}, corpus.Intern(Stem("beta")): {TF: 1, DF: 1}}
	got := SelectTerms(profile, 1, corpus, 0, SelectModifiedOW)
	if len(got) != 2 {
		t.Errorf("k=0 returned %d terms, want all (2)", len(got))
	}
}

func TestQueryFromTerms(t *testing.T) {
	q := QueryFromTerms([]TermScore{
		{Term: "a", Score: 10},
		{Term: "b", Score: 5},
	})
	if q["a"] != 1 || q["b"] != 0.5 {
		t.Errorf("QueryFromTerms = %v", q)
	}
	if len(QueryFromTerms(nil)) != 0 {
		t.Error("nil terms should give empty query")
	}
}

func TestTermSelectionModeString(t *testing.T) {
	if SelectModifiedOW.String() != "modified-ow" ||
		SelectPlainOW.String() != "plain-ow" ||
		SelectRawTF.String() != "raw-tf" {
		t.Error("mode names wrong")
	}
	if TermSelectionMode(99).String() != "unknown" {
		t.Error("unknown mode name wrong")
	}
}
