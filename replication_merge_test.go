package reef

import (
	"reflect"
	"testing"

	"reef/internal/durable"
)

// TestMergeReplPositions pins the per-shard merge behind
// ReplicationPositions and shard migration: per source the newest epoch
// wins and within it the lowest applied position, with a table in an
// older epoch, or one that never saw the source, reading 0.
func TestMergeReplPositions(t *testing.T) {
	type table = map[string]durable.ReplPosition
	pos := func(src string, epoch, applied int64) durable.ReplPosition {
		return durable.ReplPosition{Source: src, Epoch: epoch, Applied: applied}
	}
	for _, tc := range []struct {
		name   string
		tables []table
		want   []durable.ReplPosition
	}{
		{"no tables", nil, []durable.ReplPosition{}},
		{"one table, sorted by source",
			[]table{{"b": pos("b", 1, 4), "a": pos("a", 2, 9)}},
			[]durable.ReplPosition{pos("a", 2, 9), pos("b", 1, 4)}},
		{"lowest applied wins",
			[]table{{"a": pos("a", 1, 9)}, {"a": pos("a", 1, 5)}, {"a": pos("a", 1, 7)}},
			[]durable.ReplPosition{pos("a", 1, 5)}},
		{"an older epoch reads 0",
			[]table{{"a": pos("a", 2, 9)}, {"a": pos("a", 1, 40)}},
			[]durable.ReplPosition{pos("a", 2, 0)}},
		{"a missing shard reads 0",
			[]table{{"a": pos("a", 1, 9)}, {}, {"a": pos("a", 1, 9)}},
			[]durable.ReplPosition{pos("a", 1, 0)}},
		{"sources merge independently",
			[]table{{"a": pos("a", 1, 9), "b": pos("b", 3, 2)}, {"a": pos("a", 1, 8), "b": pos("b", 3, 6)}},
			[]durable.ReplPosition{pos("a", 1, 8), pos("b", 3, 2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := mergeReplPositions(tc.tables); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("merge = %+v, want %+v", got, tc.want)
			}
		})
	}
}
