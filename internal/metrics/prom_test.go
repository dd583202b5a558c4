package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestWriteTextGolden pins the full exposition output for a registry
// plus a list of samples (HELP/TYPE lines, family ordering, label
// rendering, cumulative histogram buckets) and the flat Stats() view
// of the same samples.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(LabeledName(HTTPRequests, Label{"route", "events"}, Label{"class", "2xx"})).Add(3)
	reg.Gauge(HTTPInFlight.Name).Add(1)
	h := reg.Histogram(LabeledName(HTTPRequestSeconds, Label{"route", "events"}))
	h.Observe(0.5) // exp -1 => le 0.5
	h.Observe(0.5)
	h.Observe(2) // exp 1 => le 2

	samples := []Sample{
		{Def: ClicksStored, Value: 42},
		{Def: ClicksStored, Label: Shard(0), Value: 20},
		{Def: Shards, Label: Node("n1"), Value: 4},
		{Def: ReplicationLagP99Micros, Value: 512},
	}

	var b strings.Builder
	if err := WriteText(&b, reg, samples); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := `# HELP reef_engine_clicks_stored Click records held in the store.
# TYPE reef_engine_clicks_stored gauge
reef_engine_clicks_stored 42
reef_engine_clicks_stored{shard="0"} 20
# HELP reef_http_in_flight HTTP requests currently being served.
# TYPE reef_http_in_flight gauge
reef_http_in_flight 1
# HELP reef_http_request_seconds HTTP request latency in seconds, labeled by route.
# TYPE reef_http_request_seconds histogram
reef_http_request_seconds_bucket{route="events",le="0.5"} 2
reef_http_request_seconds_bucket{route="events",le="2"} 3
reef_http_request_seconds_bucket{route="events",le="+Inf"} 3
reef_http_request_seconds_sum{route="events"} 3
reef_http_request_seconds_count{route="events"} 3
# HELP reef_http_requests_total HTTP requests served, labeled by route and status class.
# TYPE reef_http_requests_total counter
reef_http_requests_total{class="2xx",route="events"} 3
# HELP reef_replication_lag_p99_micros p99 replication shipping lag in microseconds.
# TYPE reef_replication_lag_p99_micros gauge
reef_replication_lag_p99_micros 512
# HELP reef_shards Shard count of the deployment.
# TYPE reef_shards gauge
reef_shards{node="n1"} 4
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	flat := Flat(samples)
	wantFlat := map[string]float64{
		"clicks_stored": 42, "shard0_clicks_stored": 20,
		"node_n1_shards": 4, "replication_lag_p99_micros": 512,
	}
	if len(flat) != len(wantFlat) {
		t.Errorf("Flat = %v, want %v", flat, wantFlat)
	}
	for k, v := range wantFlat {
		if flat[k] != v {
			t.Errorf("Flat[%q] = %v, want %v", k, flat[k], v)
		}
	}
}

// TestCombineAndDecode pins the merge rules a family carries and the
// exact-key decoding of a flat view: totals sum, the lag gauge takes
// the maximum, breakdown keys and keys no Def names are not read.
func TestCombineAndDecode(t *testing.T) {
	a := Decode(map[string]float64{
		"clicks_stored": 3, "replication_lag_p99_micros": 40,
		"shard0_clicks_stored": 2, "node_x_shards": 2, "no_such_key": 1,
	})
	b := Decode(map[string]float64{"clicks_stored": 4, "replication_lag_p99_micros": 25})
	got := Flat(Combine(a, b))
	want := map[string]float64{"clicks_stored": 7, "replication_lag_p99_micros": 40}
	if len(got) != len(want) || got["clicks_stored"] != 7 || got["replication_lag_p99_micros"] != 40 {
		t.Errorf("Combine(Decode...) = %v, want %v", got, want)
	}
}

func TestLabeledName(t *testing.T) {
	got := LabeledName(HTTPRequests, Label{"route", "x"}, Label{"class", "2xx"})
	want := `reef_http_requests_total{class="2xx",route="x"}`
	if got != want {
		t.Errorf("LabeledName = %q, want %q (labels must sort)", got, want)
	}
	if got := LabeledName(HTTPRequests); got != HTTPRequests.Name {
		t.Errorf("LabeledName with no labels = %q", got)
	}
	got = LabeledName(HTTPRequests, Label{"route", `a"b\c`})
	if !strings.Contains(got, `a\"b\\c`) {
		t.Errorf("label value not escaped: %q", got)
	}
}

// TestHistogramObserveSnapshotConcurrent hammers Observe against
// Snapshot and the exposition renderer from separate goroutines; run
// with -race this pins that the histogram's lock covers every reader.
func TestHistogramObserveSnapshotConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(StreamBatchEvents.Name)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed + 1)
			for {
				h.Observe(v)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	for i := 0; i < 200; i++ {
		reg.Snapshot()
		var b strings.Builder
		if err := WriteText(&b, reg, nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if h.Count() == 0 {
		t.Error("no observations landed")
	}
}

// TestDefsTableConsistency checks the table's own invariants: no
// duplicate Prometheus names, no duplicate non-empty keys, every name
// carrying the reef_ prefix.
func TestDefsTableConsistency(t *testing.T) {
	names := make(map[string]bool)
	keys := make(map[string]bool)
	for _, d := range Defs {
		if d.Name == "" || !strings.HasPrefix(d.Name, "reef_") {
			t.Errorf("def %+v: name must start with reef_", d)
		}
		if names[d.Name] {
			t.Errorf("duplicate family name %q", d.Name)
		}
		names[d.Name] = true
		if d.Key != "" {
			if keys[d.Key] {
				t.Errorf("duplicate stats key %q", d.Key)
			}
			keys[d.Key] = true
		}
		if d.Help == "" {
			t.Errorf("family %s has no help text", d.Name)
		}
	}
}
