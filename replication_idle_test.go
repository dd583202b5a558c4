package reef_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"reef"
	"reef/internal/replication"
	"reef/internal/routing"
)

// TestIdlePeerNeverResyncs pins that a peer's shipping state is its
// own: on three file-backed nodes at k=1, node c's REST surface
// refuses a while a journals more than a's Retain records, all of them
// for users whose replica set is {a, b}. Nothing was meant for c, so
// once c answers again it must not be resynced: a resync ships c its
// share of a's state, which holds a's copy of c's own users' clicks (c
// would count them twice).
func TestIdlePeerNeverResyncs(t *testing.T) {
	ctx := context.Background()
	web := testWeb(91)
	feeds := feedURLs(web)
	ids := []string{"a", "b", "c"}

	tc := startCluster(t, web, ids, 2, 4) // c answers 503 to a while tc.refuse is set
	deps, mgrs, refuse := tc.deps, tc.mgrs, &tc.refuse
	a, c := mgrs[0], deps[2]
	drained := func(m *replication.Manager) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var pending int64
			for _, p := range m.Status().Peers {
				pending += p.Pending
			}
			if pending == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("streams did not drain: %+v", m.Status().Peers)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// c's own user (replica set {c, a}) clicks on c; a holds the copy.
	var ab []string // ten users of slot 0, replica set {a, b}
	var ca string   // a user of slot 2, replica set {c, a}
	for i := 0; len(ab) < 10 || ca == ""; i++ {
		u := fmt.Sprintf("u%d", i)
		switch s := routing.UserSlot(u, len(ids)); {
		case s == 0 && len(ab) < 10:
			ab = append(ab, u)
		case s == 2 && ca == "":
			ca = u
		}
	}
	var clicks []reef.Click
	for i := range 5 {
		clicks = append(clicks, reef.Click{User: ca, URL: fmt.Sprintf("http://pages.test/%d", i), At: dt0.Add(time.Duration(i) * time.Second)})
	}
	if _, err := c.IngestClicks(ctx, clicks); err != nil {
		t.Fatal(err)
	}
	drained(mgrs[2])
	stored := func() float64 {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st["clicks_stored"]
	}
	before := stored()
	if before != 5 {
		t.Fatalf("c stores %v clicks, want its user's 5", before)
	}

	// c refuses a while a journals well past Retain for {a, b} only.
	refuse.Store(true)
	for _, u := range ab {
		if _, err := deps[0].Subscribe(ctx, u, feeds[0]); err != nil {
			t.Fatal(err)
		}
	}
	drained(a)
	time.Sleep(100 * time.Millisecond) // ten retry intervals of refusal
	refuse.Store(false)

	// One record for c's user from a then proves a's stream to c is
	// live: by the time c acks it, any resync would have shipped first.
	if _, err := deps[0].Subscribe(ctx, ca, feeds[0]); err != nil {
		t.Fatal(err)
	}
	drained(a)

	// b may legitimately fall past a's tiny Retain during the burst; c
	// was meant nothing.
	for _, p := range a.Status().Peers {
		if p.Node == "c" && p.Resyncs != 0 {
			t.Errorf("a resynced c %d times; nothing was meant for c while it refused", p.Resyncs)
		}
	}
	if n := c.cuts.Load(); n != 0 {
		t.Errorf("c absorbed %d snapshot cuts, want 0", n)
	}
	if got := stored(); got != before {
		t.Errorf("c stores %v clicks after the outage, want %v: its own user's clicks came back from a", got, before)
	}
	for _, u := range ab {
		if subs, err := c.Subscriptions(ctx, u); err != nil || len(subs) != 0 {
			t.Errorf("c holds %d subscriptions (%v) for %s, whose replica set is {a, b}", len(subs), err, u)
		}
	}
	if subs, err := c.Subscriptions(ctx, ca); err != nil || len(subs) != 1 {
		t.Errorf("c holds %d subscriptions (%v) for its own user %s, want the 1 a shipped", len(subs), err, ca)
	}
}
