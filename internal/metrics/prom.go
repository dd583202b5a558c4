package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a registry and a list of samples in the Prometheus
// text exposition format (version 0.0.4), dependency-free.
// Registry metric names may embed exposition labels — a metric
// registered as `reef_http_request_seconds{route="publish"}` (built
// with LabeledName) becomes one series of the
// `reef_http_request_seconds` family. Histograms expose cumulative
// power-of-two buckets matching their internal exponential layout,
// plus `_sum` and `_count`.

// LabeledName builds a registry metric name carrying exposition labels:
// LabeledName(HTTPRequests, Label{"route", "events"}) =>
// `reef_http_requests_total{route="events"}`. Labels are sorted so the
// same set always produces the same registry key.
func LabeledName(d Def, labels ...Label) string {
	if len(labels) == 0 {
		return d.Name
	}
	return d.Name + "{" + labelBlock(labels...) + "}"
}

// labelBlock renders label pairs sorted by key, without braces.
func labelBlock(labels ...Label) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// splitName separates a registry key into family and the label block
// (without braces); labels is "" when the key carries none.
func splitName(key string) (family, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// joinLabels merges a series' label block with one extra pair (used for
// the histogram `le` label).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	if extra == "" {
		return labels
	}
	return labels + "," + extra
}

// histSnapshot is a point-in-time copy of a histogram for rendering.
type histSnapshot struct {
	count int64
	sum   float64
	exps  []int
	ns    []int64
}

// snapshotForProm copies the histogram's state under its lock; sorting
// runs outside the critical section.
func (h *Histogram) snapshotForProm() histSnapshot {
	h.mu.Lock()
	s := histSnapshot{count: h.count, sum: h.sum}
	s.exps = make([]int, 0, len(h.buckets))
	for e := range h.buckets {
		s.exps = append(s.exps, e)
	}
	ns := make(map[int]int64, len(h.buckets))
	for e, n := range h.buckets {
		ns[e] = n
	}
	h.mu.Unlock()

	sort.Ints(s.exps)
	s.ns = make([]int64, len(s.exps))
	for i, e := range s.exps {
		s.ns[i] = ns[e]
	}
	return s
}

// upperBound renders a bucket exponent's inclusive upper bound. The
// underflow bucket (observations <= 0) reports le="0".
func upperBound(exp int) string {
	if exp == math.MinInt32 {
		return "0"
	}
	return strconv.FormatFloat(math.Pow(2, float64(exp)), 'g', -1, 64)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type promSeries struct {
	labels string
	value  float64
	hist   *histSnapshot
}

type promFamily struct {
	name   string
	kind   Kind
	help   string
	series []promSeries
}

// WriteText writes reg (when non-nil) and samples as Prometheus text
// exposition, one block per family. Each value has one producer, so a
// family is fed by the registry or by samples, never both.
func WriteText(w io.Writer, reg *Registry, samples []Sample) error {
	fams := make(map[string]*promFamily)
	order := []string{}
	add := func(name string, kind Kind, help string, s promSeries) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind, help: help}
			fams[name] = f
			order = append(order, name)
		}
		f.series = append(f.series, s)
	}

	if reg != nil {
		type namedMetric struct {
			key string
			c   *Counter
			g   *Gauge
			h   *Histogram
		}
		reg.mu.Lock()
		ms := make([]namedMetric, 0, len(reg.counters)+len(reg.gauges)+len(reg.histograms))
		for n, c := range reg.counters {
			ms = append(ms, namedMetric{key: n, c: c})
		}
		for n, g := range reg.gauges {
			ms = append(ms, namedMetric{key: n, g: g})
		}
		for n, h := range reg.histograms {
			ms = append(ms, namedMetric{key: n, h: h})
		}
		reg.mu.Unlock()

		for _, m := range ms {
			family, labels := splitName(m.key)
			kind, help := KindGauge, ""
			if d, ok := byName[family]; ok {
				kind, help = d.Kind, d.Help
			} else if m.c != nil {
				kind = KindCounter
			} else if m.h != nil {
				kind = KindHistogram
			}
			switch {
			case m.c != nil:
				add(family, kind, help, promSeries{labels: labels, value: float64(m.c.Value())})
			case m.g != nil:
				add(family, kind, help, promSeries{labels: labels, value: float64(m.g.Value())})
			case m.h != nil:
				snap := m.h.snapshotForProm()
				add(family, kind, help, promSeries{labels: labels, hist: &snap})
			}
		}
	}

	for _, s := range samples {
		labels := ""
		if s.Label.Key != "" {
			labels = labelBlock(s.Label)
		}
		add(s.Def.Name, s.Def.Kind, s.Def.Help, promSeries{labels: labels, value: s.Value})
	}

	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			if s.hist == nil {
				if err := writeSample(w, f.name, s.labels, formatValue(s.value)); err != nil {
					return err
				}
				continue
			}
			var cum int64
			for i, exp := range s.hist.exps {
				cum += s.hist.ns[i]
				le := joinLabels(s.labels, `le="`+upperBound(exp)+`"`)
				if err := writeSample(w, f.name+"_bucket", le, strconv.FormatInt(cum, 10)); err != nil {
					return err
				}
			}
			inf := joinLabels(s.labels, `le="+Inf"`)
			if err := writeSample(w, f.name+"_bucket", inf, strconv.FormatInt(s.hist.count, 10)); err != nil {
				return err
			}
			if err := writeSample(w, f.name+"_sum", s.labels, formatValue(s.hist.sum)); err != nil {
				return err
			}
			if err := writeSample(w, f.name+"_count", s.labels, strconv.FormatInt(s.hist.count, 10)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name, labels, value string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
	return err
}

// byName indexes the table by Prometheus family name for exposition
// TYPE/HELP lookup.
var byName = func() map[string]Def {
	m := make(map[string]Def, len(Defs))
	for _, d := range Defs {
		m[d.Name] = d
	}
	return m
}()
