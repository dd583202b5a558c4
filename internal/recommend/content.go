package recommend

import (
	"fmt"
	"time"

	"reef/internal/eventalg"
	"reef/internal/ir"
)

// ContentConfig tunes the content-based recommender.
type ContentConfig struct {
	// NumTerms is the N of "top N terms" (paper: optimal 30).
	NumTerms int
	// Mode selects the term-ranking formula (paper: modified offer
	// weight; others for ablation A1).
	Mode ir.TermSelectionMode
}

// contentUser accumulates one user's attention profile.
type contentUser struct {
	stats map[uint32]ir.TermStat // corpus term ID -> stats over attended docs
	R     int                    // attended doc count
}

// ContentRecommender drives §3.3: it accumulates term statistics from the
// pages a user attends to and builds weighted keyword queries from the top
// N terms by (modified) offer weight against a background corpus. It is
// not safe for concurrent use.
type ContentRecommender struct {
	cfg    ContentConfig
	corpus *ir.Corpus
	users  map[string]*contentUser
}

// NewContentRecommender builds a content recommender over the background
// corpus (the collection queries will run against).
func NewContentRecommender(cfg ContentConfig, corpus *ir.Corpus) *ContentRecommender {
	if cfg.NumTerms <= 0 {
		cfg.NumTerms = 30
	}
	if cfg.Mode == 0 {
		cfg.Mode = ir.SelectModifiedOW
	}
	return &ContentRecommender{
		cfg:    cfg,
		corpus: corpus,
		users:  make(map[string]*contentUser),
	}
}

// ObservePage folds one attended page's term counts into the user profile.
// Terms are keyed by their ID in the background corpus's dictionary.
func (cr *ContentRecommender) ObservePage(user string, terms map[string]int) {
	if len(terms) == 0 {
		return
	}
	u, ok := cr.users[user]
	if !ok {
		u = &contentUser{stats: make(map[uint32]ir.TermStat)}
		cr.users[user] = u
	}
	u.R++
	for t, n := range terms {
		id := cr.corpus.Intern(t)
		st := u.stats[id]
		st.TF += uint32(n)
		st.DF++
		u.stats[id] = st
	}
}

// ProfileSize reports how many attended pages back the user's profile.
func (cr *ContentRecommender) ProfileSize(user string) int {
	if u, ok := cr.users[user]; ok {
		return u.R
	}
	return 0
}

// SelectTerms returns the user's top-n profile terms under the configured
// mode (n <= 0 uses the configured NumTerms).
func (cr *ContentRecommender) SelectTerms(user string, n int) []ir.TermScore {
	return cr.SelectTermsBy(user, n, cr.cfg.Mode)
}

// SelectTermsBy is SelectTerms under the given mode.
func (cr *ContentRecommender) SelectTermsBy(user string, n int, mode ir.TermSelectionMode) []ir.TermScore {
	u, ok := cr.users[user]
	if !ok {
		return nil
	}
	if n <= 0 {
		n = cr.cfg.NumTerms
	}
	return ir.SelectTerms(u.stats, u.R, cr.corpus, n, mode)
}

// Recommend produces the user's content-query recommendation: a pub-sub
// filter requiring events to carry at least one strong profile term in
// their keyword attribute, plus the term list for ranking use.
func (cr *ContentRecommender) Recommend(user string, at time.Time) (Recommendation, bool) {
	terms := cr.SelectTerms(user, 0)
	if len(terms) == 0 {
		return Recommendation{}, false
	}
	// The subscription filter matches events whose "keywords" attribute
	// contains the single strongest term; ranking the matched events uses
	// the full weighted query. (Event algebra conjunctions cannot express
	// disjunction; the strongest-term filter is the standard conservative
	// projection.)
	f := eventalg.NewFilter(
		eventalg.C("keywords", eventalg.OpContains, eventalg.String(terms[0].Term)),
	)
	return Recommendation{
		Kind:   KindContentQuery,
		User:   user,
		Filter: f,
		Terms:  terms,
		Reason: fmt.Sprintf("top-%d profile terms over %d attended pages", len(terms), cr.users[user].R),
		At:     at,
	}, true
}
