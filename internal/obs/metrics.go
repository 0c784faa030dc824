// Package obs is the observability layer: a typed metrics registry
// (counters, gauges, fixed-bucket histograms with Prometheus-style text
// exposition) and a structured protocol-event tracer whose timestamps
// come exclusively from the injected clock.Clock.
//
// Metric names are registered up front with a help string, so a
// misspelled name fails loudly at construction or lookup instead of
// silently creating a fresh series the way the (since removed)
// string-keyed stats.Registry did. All handles are safe for concurrent
// use and
// nil-receiver safe, so instrumented code never has to guard against a
// missing registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is a constant key=value pair attached to every series a
// registry exposes (e.g. node="ac-0").
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefLatencyBuckets are the default histogram upper bounds (seconds)
// for protocol-latency histograms. Fixed at construction: no runtime
// bucket allocation, no wall-clock reads.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is the registry's view of one registered series.
type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds typed, pre-registered metrics. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	labels  []Label
	metrics map[string]*metric
}

// NewRegistry returns an empty registry whose series all carry the
// given constant labels at exposition time.
func NewRegistry(labels ...Label) *Registry {
	return &Registry{labels: labels, metrics: make(map[string]*metric)}
}

// Labels returns the registry's constant labels.
func (r *Registry) Labels() []Label { return r.labels }

func (r *Registry) register(name, help string, kind metricKind) *metric {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

// Counter registers (or returns the existing) counter under name.
// Registering the same name with a different kind panics.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).g
}

// Histogram registers (or returns the existing) histogram under name
// with the given bucket upper bounds (seconds, ascending). A second
// registration must not change the buckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	m := r.register(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		m.h = NewHistogram(buckets)
		return m.h
	}
	if len(m.h.bounds) != len(buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return m.h
}

// lookup panics on an unknown name: the whole point of pre-registration
// is that a typo fails fast instead of reading a phantom zero.
func (r *Registry) lookup(name string) *metric {
	r.mu.Lock()
	m, ok := r.metrics[name]
	r.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("obs: unknown metric %q", name))
	}
	return m
}

// Value returns the current value of the named counter or gauge, or the
// observation count of the named histogram. Unknown names panic.
func (r *Registry) Value(name string) int64 {
	switch m := r.lookup(name); m.kind {
	case kindCounter:
		return m.c.Value()
	case kindGauge:
		return m.g.Value()
	default:
		return m.h.Count()
	}
}

// GetHistogram returns the previously registered histogram under name,
// panicking if the name is unknown or not a histogram.
func (r *Registry) GetHistogram(name string) *Histogram {
	m := r.lookup(name)
	if m.kind != kindHistogram {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a histogram", name, m.kind))
	}
	return m.h
}

// Names returns all registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current value of every counter and gauge, plus
// each histogram's observation count.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.metrics))
	for name := range r.metrics {
		m := r.metrics[name]
		switch m.kind {
		case kindCounter:
			out[name] = m.c.Value()
		case kindGauge:
			out[name] = m.g.Value()
		default:
			out[name] = m.h.Count()
		}
	}
	return out
}

// Reset zeroes every counter and gauge. Histograms are left alone:
// their buckets are cumulative by design.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m.kind {
		case kindCounter:
			m.c.v.Store(0)
		case kindGauge:
			m.g.v.Store(0)
		}
	}
}

// String renders "name=value" pairs sorted by name — the flat
// exposition used in logs and tests.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, snap[name]))
	}
	return strings.Join(parts, " ")
}

// Counter is a monotonically non-decreasing metric. Negative deltas are
// ignored. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta (ignored if delta < 0).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (zero for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at
// construction. Observe is lock-free and safe from data-plane worker
// goroutines. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64      // ascending upper bounds
	counts  []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram returns a histogram with the given ascending bucket
// upper bounds. An empty slice falls back to DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count, or zero with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket that holds the q-th observation. The
// overflow bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if h == nil || n == 0 || q <= 0 || q > 1 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if seen+c < rank {
			seen += c
			continue
		}
		if i == len(h.bounds) { // +Inf bucket: best effort
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if c == 0 {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-seen)/c
	}
	return h.bounds[len(h.bounds)-1]
}

// sanitizeName maps internal dotted metric names ("sim.dropped.rate")
// to the Prometheus charset ([a-zA-Z0-9_:]).
func sanitizeName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, 0, len(all))
	for _, l := range all {
		parts = append(parts, fmt.Sprintf("%s=%q", sanitizeName(l.Name), l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes this registry's series in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteAll(w, r)
}

// WriteAll merges several registries into one Prometheus text
// exposition: series sharing a metric name get one HELP/TYPE header and
// one sample per registry, distinguished by the registries' constant
// labels.
func WriteAll(w io.Writer, regs ...*Registry) error {
	type series struct {
		m      *metric
		labels []Label
	}
	byName := make(map[string][]series)
	var names []string
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		for name, m := range r.metrics {
			if _, ok := byName[name]; !ok {
				names = append(names, name)
			}
			byName[name] = append(byName[name], series{m: m, labels: r.labels})
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	for _, name := range names {
		ss := byName[name]
		pn := sanitizeName(name)
		if ss[0].m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, ss[0].m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, ss[0].m.kind); err != nil {
			return err
		}
		for _, s := range ss {
			var err error
			switch s.m.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", pn, labelString(s.labels), s.m.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", pn, labelString(s.labels), s.m.g.Value())
			case kindHistogram:
				err = writeHistogram(w, pn, s.labels, s.m.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, pn string, labels []Label, h *Histogram) error {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := L("le", formatFloat(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", pn, labelString(labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", pn, labelString(labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", pn, labelString(labels), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", pn, labelString(labels), h.Count())
	return err
}

func formatFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}

// Shared metric names registered by the member layer and read by the
// bench and daemon layers.
const (
	MetricJoinSeconds   = "mykil_member_join_seconds"
	MetricRejoinSeconds = "mykil_member_rejoin_seconds"
	MetricRekeySeconds  = "mykil_ac_rekey_seconds"
	MetricElections     = "mykil_elections_total"
	MetricAreaSplits    = "mykil_area_splits_total"
	MetricReplBytes     = "mykil_replication_bytes_total"
	MetricDataDropped   = "mykil_member_data_dropped_total"

	HelpJoinSeconds   = "Latency of the full 7-step member join handshake."
	HelpRejoinSeconds = "Latency of the 6-step ticket rejoin handshake."
	HelpRekeySeconds  = "Duration of one area batch rekey (tree recompute + seal)."
	HelpElections     = "Quorum leader elections won across all replica sets."
	HelpAreaSplits    = "Dynamic area topology changes (splits and merges)."
	HelpReplBytes     = "Payload bytes shipped to replicas (snapshot or segment sync)."
	HelpDataDropped   = "Data packets for the member's area it could not read: unknown cipher tag, data key that will not open, payload failing authentication."
)

// MetricKeyUpdateDropped names the counter of KeyUpdate frames a
// receiver (a member, or a controller as a member of its parent's area)
// refused for reason — a value of wire.KeyUpdateDropReason.
func MetricKeyUpdateDropped(reason string) string {
	return "mykil_keyupdate_dropped_" + reason + "_total"
}

// KeyUpdateDropped counts one refused KeyUpdate in r. The series is
// registered by its first drop rather than at construction: drops are
// rare and a deployment holds thousands of member registries, so an
// absent series reads as zero.
func KeyUpdateDropped(r *Registry, reason string) {
	r.Counter(MetricKeyUpdateDropped(reason),
		"KeyUpdate frames refused before any key changed, by reason: tag not the receiver's (bad_mac), body (bad_body), area (wrong_area).").Inc()
}

// MetricPathUpdateStale counts genuine PathUpdates a receiver refused
// because they were older than its view — a replay, which would roll the
// view back to old keys and an old epoch.
const MetricPathUpdateStale = "mykil_pathupdate_stale_total"

// PathUpdateStale counts one refused stale PathUpdate in r, registering
// the series on first use as KeyUpdateDropped does.
func PathUpdateStale(r *Registry) {
	r.Counter(MetricPathUpdateStale, "PathUpdates refused for an epoch below the receiver's view (replays).").Inc()
}
