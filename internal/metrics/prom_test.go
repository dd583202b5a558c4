package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestWriteTextGolden pins the full exposition output for a registry
// plus legacy stats map: HELP/TYPE lines, family ordering, label
// rendering, cumulative histogram buckets, and the registry-over-stats
// dedup rule.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(LabeledName(HTTPRequests, Label{"route", "events"}, Label{"class", "2xx"})).Add(3)
	reg.Gauge(HTTPInFlight.Name).Add(1)
	h := reg.Histogram(LabeledName(HTTPRequestSeconds, Label{"route", "events"}))
	h.Observe(0.5) // exp -1 => le 0.5
	h.Observe(0.5)
	h.Observe(2) // exp 1 => le 2

	stats := map[string]float64{
		"clicks_stored":        42,
		"shard0_clicks_stored": 20,
		"node_n1_shards":       4,
		"proxy_cache_hits":     7,
		"mystery_key":          1,
		"upload_bytes.max":     512,
	}

	var b strings.Builder
	if err := WriteText(&b, reg, stats); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := `# HELP reef_engine_clicks_stored Click records held in the store.
# TYPE reef_engine_clicks_stored gauge
reef_engine_clicks_stored 42
reef_engine_clicks_stored{shard="0"} 20
# HELP reef_engine_proxy_stat Proxy component registry stat, labeled by stat name.
# TYPE reef_engine_proxy_stat untyped
reef_engine_proxy_stat{stat="cache_hits"} 7
# HELP reef_engine_upload_bytes_max Bytes uploaded by frontends. (max projection)
# TYPE reef_engine_upload_bytes_max untyped
reef_engine_upload_bytes_max 512
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
# HELP reef_shards Shard count of the deployment.
# TYPE reef_shards gauge
reef_shards{node="n1"} 4
# HELP reef_stat Stats() key with no table entry, labeled by raw key.
# TYPE reef_stat untyped
reef_stat{key="mystery_key"} 1
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTextDedup pins the migration rule: a stats key whose family
// the registry already exports is skipped, so a component half-way
// through the Stats()-to-registry migration never double-reports.
func TestWriteTextDedup(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(ClusterForwardErrors.Name).Add(5)
	var b strings.Builder
	err := WriteText(&b, reg, map[string]float64{ClusterForwardErrors.Key: 5})
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, ClusterForwardErrors.Name+" ") {
			samples++
		}
	}
	if samples != 1 {
		t.Errorf("family sample rendered %d times, want 1:\n%s", samples, b.String())
	}
}

func TestResolveStatKey(t *testing.T) {
	for _, tc := range []struct {
		raw, name  string
		kind       Kind
		wantLabels []Label
	}{
		{"clicks_stored", ClicksStored.Name, KindGauge, nil},
		{"delivery_acked", DeliveryAcked.Name, KindCounter, nil},
		{"shard3_pending_recommendations", PendingRecommendations.Name, KindGauge, []Label{{"shard", "3"}}},
		{"node_n2_clicks_stored", ClicksStored.Name, KindGauge, []Label{{"node", "n2"}}},
		{"node_a_b_shards", Shards.Name, KindGauge, []Label{{"node", "a_b"}}},
		{"replication_lag_p99_micros.max", ReplicationLagP99Micros.Name + "_max", KindUntyped, nil},
		{"broker_published.mean", BrokerStat.Name + "_mean", KindUntyped, []Label{{"stat", "published"}}},
		{"shard1_broker_canceled", BrokerCanceled.Name, KindCounter, []Label{{"shard", "1"}}},
		{"proxy_fetches", ProxyStat.Name, KindUntyped, []Label{{"stat", "fetches"}}},
		{"what_is_this", UnknownStat.Name, KindUntyped, []Label{{"key", "what_is_this"}}},
		// "shardX_" with a non-numeric index is not a shard prefix.
		{"shardy_key", UnknownStat.Name, KindUntyped, []Label{{"key", "shardy_key"}}},
	} {
		name, kind, _, labels := ResolveStatKey(tc.raw)
		if name != tc.name || kind != tc.kind {
			t.Errorf("ResolveStatKey(%q) = (%q, %v), want (%q, %v)", tc.raw, name, kind, tc.name, tc.kind)
		}
		if len(labels) != len(tc.wantLabels) {
			t.Errorf("ResolveStatKey(%q) labels = %v, want %v", tc.raw, labels, tc.wantLabels)
			continue
		}
		for i := range labels {
			if labels[i] != tc.wantLabels[i] {
				t.Errorf("ResolveStatKey(%q) label %d = %v, want %v", tc.raw, i, labels[i], tc.wantLabels[i])
			}
		}
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
	got = LabeledName(UnknownStat, Label{"key", `a"b\c`})
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
