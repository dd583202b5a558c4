package recommend

import (
	"fmt"
	"testing"

	"reef/internal/ir"
)

// backgroundCorpus builds a corpus where "special" terms are rare and
// "mundane" terms ubiquitous.
func backgroundCorpus() *ir.Corpus {
	c := ir.NewCorpus()
	for i := 0; i < 40; i++ {
		c.AddText(fmt.Sprintf("bg%02d", i), "mundane everyday chatter traffic weather")
	}
	c.AddText("special1", "quasar telescope astronomy")
	c.AddText("special2", "quasar redshift astronomy")
	return c
}

func TestContentProfileAccumulation(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{NumTerms: 5}, backgroundCorpus())
	cr.ObservePage("u1", ir.TermCounts("quasar telescope astronomy quasar"))
	cr.ObservePage("u1", ir.TermCounts("quasar redshift"))
	if got := cr.ProfileSize("u1"); got != 2 {
		t.Errorf("ProfileSize = %d", got)
	}
	if got := cr.ProfileSize("u2"); got != 0 {
		t.Errorf("ProfileSize(u2) = %d", got)
	}
	cr.ObservePage("u1", nil) // no-op
	if got := cr.ProfileSize("u1"); got != 2 {
		t.Errorf("ProfileSize after nil page = %d", got)
	}
}

func TestContentSelectTermsPrefersDiscriminative(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{NumTerms: 2}, backgroundCorpus())
	// The user read pages mixing rare and mundane terms.
	for i := 0; i < 5; i++ {
		cr.ObservePage("u1", ir.TermCounts("quasar astronomy mundane everyday"))
	}
	terms := cr.SelectTerms("u1", 0)
	if len(terms) == 0 {
		t.Fatal("no terms selected")
	}
	top := terms[0].Term
	if top != ir.Stem("quasar") && top != ir.Stem("astronomy") {
		t.Errorf("top term = %q, want a discriminative one", top)
	}
}

func TestContentQueryWeights(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{NumTerms: 3}, backgroundCorpus())
	cr.ObservePage("u1", ir.TermCounts("quasar quasar telescope"))
	q := ir.QueryFromTerms(cr.SelectTerms("u1", 0))
	if len(q) == 0 {
		t.Fatal("empty query")
	}
	for term, w := range q {
		if w <= 0 || w > 1 {
			t.Errorf("weight %q = %v out of (0,1]", term, w)
		}
	}
}

func TestContentRecommend(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{NumTerms: 4}, backgroundCorpus())
	cr.ObservePage("u1", ir.TermCounts("quasar telescope astronomy"))
	rec, ok := cr.Recommend("u1", rt0)
	if !ok {
		t.Fatal("no recommendation")
	}
	if rec.Kind != KindContentQuery || len(rec.Terms) == 0 {
		t.Errorf("rec = %+v", rec)
	}
	if rec.Filter.IsEmpty() {
		t.Error("empty filter")
	}
}

func TestContentRecommendEmptyProfile(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{}, backgroundCorpus())
	if _, ok := cr.Recommend("ghost", rt0); ok {
		t.Error("recommendation from empty profile")
	}
	if terms := cr.SelectTerms("ghost", 5); terms != nil {
		t.Error("terms from empty profile")
	}
}

func TestContentNumTermsHonored(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{NumTerms: 2}, backgroundCorpus())
	cr.ObservePage("u1", ir.TermCounts("quasar telescope astronomy redshift mundane"))
	if got := len(cr.SelectTerms("u1", 0)); got > 2 {
		t.Errorf("terms = %d, want <= 2", got)
	}
	if got := len(cr.SelectTerms("u1", 4)); got > 4 {
		t.Errorf("terms(4) = %d, want <= 4", got)
	}
}

func TestContentModeDefaults(t *testing.T) {
	cr := NewContentRecommender(ContentConfig{}, backgroundCorpus())
	if cr.cfg.NumTerms != 30 {
		t.Errorf("default NumTerms = %d, want 30 (paper optimum)", cr.cfg.NumTerms)
	}
	if cr.cfg.Mode != ir.SelectModifiedOW {
		t.Errorf("default Mode = %v", cr.cfg.Mode)
	}
}
