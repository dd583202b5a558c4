//go:build !race

package reef_test

import (
	"fmt"
	"testing"
	"time"

	"reef"
	"reef/internal/attention"
	"reef/internal/durable"
)

// replicatedAllocsPerClick is the allocation budget of a replica
// applying a click batch: allocations per click for ApplyReplicated of
// one 64-click record, decode, apply and journal included. Measured
// 1.19 (76 allocations per batch), with a stated slack of 0.5. The JSON
// payloads of record version 1 cost one more string per click.
const replicatedAllocsPerClick = 1.19 + 0.5

// TestReplicatedClicksAllocBudget is the allocation row of the count
// budgets: a replica applying a 64-click batch (eight users, eight
// clicks each, every URL already in the click store) stays within
// replicatedAllocsPerClick. The race detector changes allocation
// counts, hence the build tag.
func TestReplicatedClicksAllocBudget(t *testing.T) {
	dep, err := reef.NewCentralized(
		reef.WithFetcher(testWeb(76)),
		reef.WithDataDir(t.TempDir()),
		reef.WithSyncPolicy(reef.SyncNever),
		reef.WithSnapshotEvery(-1),
		reef.WithPollInterval(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	const users, perUser = 8, 8
	batch := make([]attention.Click, 0, users*perUser)
	for u := 0; u < users; u++ {
		for i := 0; i < perUser; i++ {
			batch = append(batch, attention.Click{
				User: fmt.Sprintf("user-%d", u),
				URL:  fmt.Sprintf("http://pages%d.test/p/%d.html", u, i),
				At:   dt0.Add(time.Duration(u*perUser+i) * time.Second),
			})
		}
	}
	rec := durable.ClicksRecord(batch)
	apply := func() {
		if err := dep.ApplyReplicated([]durable.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	apply() // interns the batch's users and URLs
	perClick := testing.AllocsPerRun(50, apply) / float64(len(batch))
	t.Logf("%.2f allocs per replicated click", perClick)
	if perClick > replicatedAllocsPerClick {
		t.Errorf("ApplyReplicated allocates %.2f per click, budget %.2f", perClick, replicatedAllocsPerClick)
	}
}
