package reefstream_test

import (
	"context"
	"testing"

	"reef"
	"reef/reefstream"
)

// BenchmarkStreamPublishEvent drives single-event publishes through the
// full client/server path with b.N spread over parallel producers — the
// ingest hot path the transport exists for.
func BenchmarkStreamPublishEvent(b *testing.B) {
	const feed = "http://h.test/f"
	dep := newBenchDep(b, feed)
	srv, err := reefstream.Listen("127.0.0.1:0", dep, reefstream.WithNode("n1"))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := reefstream.NewClient(srv.Addr().String())
	defer cl.Close()
	ctx := context.Background()
	ev := feedEvent(feed)
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cl.PublishEvent(ctx, ev); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func newBenchDep(b *testing.B, feed string) *reef.Centralized {
	b.Helper()
	dep, err := reef.NewCentralized(reef.WithFetcher(nopFetcher{}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	if _, err := dep.Subscribe(context.Background(), "user-000", feed); err != nil {
		b.Fatal(err)
	}
	return dep
}
