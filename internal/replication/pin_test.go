package replication

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"reef/internal/durable"
)

// racingApplier is a sender's applier whose next capture, once armed,
// has a record tapped while it runs: the record is offered, then the
// capture pins the peer's position and returns a cut that holds the
// record. That is the order a tap running just before the journal lock
// gives.
type racingApplier struct {
	fakeApplier
	race atomic.Pointer[Manager]
}

// raceRec is the record tapped during the capture.
var raceRec = cursorRec("race", 1000)

func (r *racingApplier) CaptureReplicationState(pin func()) ([]durable.Record, error) {
	var cut []durable.Record
	if m := r.race.Swap(nil); m != nil {
		m.Offer(raceRec)
		cut = []durable.Record{raceRec}
	}
	pin()
	return cut, nil
}

// TestResyncPinsInsideTheCut pins that a resync cut and the peer's
// queue position are taken at one instant: a record tapped while the
// cut is captured is either in the cut or shipped after it, and the
// receiver applies it exactly once.
func TestResyncPinsInsideTheCut(t *testing.T) {
	g := &gate{}
	app := &racingApplier{}
	sender, _, recvApp := pair(t, func(o *Options) {
		o.Retain = 4
		o.Applier = app
		o.HTTPClient = &http.Client{Transport: g, Timeout: 5 * time.Second}
	})
	// Armed before the outage: the first capture is the racing one. The
	// last offer overflows Retain, and the sender captures once the peer
	// answers again, so that capture comes after all of them.
	app.race.Store(sender)
	for i := 1; i <= overflow; i++ {
		sender.Offer(cursorRec("u", int64(i)))
	}
	g.open.Store(true)
	waitFor(t, "resync done and queue drained", func() bool {
		st := sender.Status()
		return st.Peers[0].Resyncs == 1 && st.Peers[0].Pending == 0
	})

	applies := 0
	recvApp.mu.Lock()
	for _, cut := range recvApp.cuts {
		for _, rec := range cut {
			if cursorSeq(t, rec) == 1000 {
				applies++
			}
		}
	}
	recvApp.mu.Unlock()
	for _, rec := range recvApp.applied() {
		if cursorSeq(t, rec) == 1000 {
			applies++
		}
	}
	if applies != 1 {
		t.Fatalf("the record tapped during the capture was applied %d times, want once", applies)
	}
}
