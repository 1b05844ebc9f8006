package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type: every instrument of one family name
// shares it (Prometheus emits exactly one TYPE line per family).
type Kind int

const (
	// KindCounter is a monotonically increasing uint64.
	KindCounter Kind = iota
	// KindGauge is an instantaneous float64.
	KindGauge
	// KindHistogram is a log-linear latency histogram exposed with
	// cumulative le buckets in seconds.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Label is one metric dimension. Instruments are keyed by the full
// sorted label set; the same (family, labels) always resolves to the
// same instrument, so counters survive re-registration (e.g. a model
// hot-swap re-creating its collectors).
type Label struct {
	Key   string
	Value string
}

// Registry is a set of metric families with deterministic Prometheus
// text exposition. All methods are safe for concurrent use.
// Registration panics on contract violations (invalid names, a family
// re-registered under a different kind) — these are programming
// errors at startup, and internal/cli.Main turns panics into exit 3.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name, help  string
	kind        Kind
	instruments map[string]*instrument // key: rendered label suffix
}

// instrument is one (family, labels) time series. Exactly one of the
// value fields is live, selected by the family kind and by whether the
// instrument was registered owned (the registry stores the value) or
// pull-style (a collector func is invoked at exposition time). The
// collector funcs are guarded by the Registry's mu.
type instrument struct {
	labels string // rendered `{k="v",...}` suffix, "" when unlabelled
	pull   bool

	count atomic.Uint64 // counter
	gauge atomic.Uint64 // gauge, as math.Float64bits
	hist  *AtomicHistogram

	countFn func() uint64
	gaugeFn func() float64
}

// Counter is a monotonically increasing metric handle.
type Counter struct{ in *instrument }

// Add increments the counter by n.
func (c Counter) Add(n uint64) { c.in.count.Add(n) }

// Inc increments the counter by one.
func (c Counter) Inc() { c.in.count.Add(1) }

// Value returns the current count.
func (c Counter) Value() uint64 { return c.in.count.Load() }

// Gauge is an instantaneous-value metric handle.
type Gauge struct{ in *instrument }

// Set stores the gauge value.
func (g Gauge) Set(v float64) { g.in.gauge.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g Gauge) Value() float64 { return math.Float64frombits(g.in.gauge.Load()) }

// HistogramMetric is a registered concurrent histogram handle.
type HistogramMetric struct{ in *instrument }

// Record adds one observation; wait-free (see AtomicHistogram).
func (h HistogramMetric) Record(d time.Duration) { h.in.hist.Record(d) }

// Snapshot materializes the current distribution.
func (h HistogramMetric) Snapshot() *Histogram { return h.in.hist.Snapshot() }

// Counter registers (or resolves) an owned counter.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{in: r.getOrCreate(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or resolves) an owned gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{in: r.getOrCreate(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or resolves) an owned histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) HistogramMetric {
	return HistogramMetric{in: r.getOrCreate(name, help, KindHistogram, labels, nil)}
}

// CounterFunc registers a pull-style counter: fn is called once per
// exposition. Re-registering the same (name, labels) replaces fn, so
// a series can be rebound to a new source (a hot-swapped model). fn
// must not call back into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.getOrCreate(name, help, KindCounter, labels, func(in *instrument) { in.countFn = fn })
}

// GaugeFunc registers a pull-style gauge; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, KindGauge, labels, func(in *instrument) { in.gaugeFn = fn })
}

// getOrCreate resolves the (name, labels) instrument, creating it on
// first use. bind is nil for an owned instrument; for a pull-style one
// it stores the collector func, under r.mu like every exposition read.
func (r *Registry) getOrCreate(name, help string, kind Kind, labels []Label, bind func(*instrument)) *instrument {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	suffix := renderLabels(labels)
	pull := bind != nil
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, instruments: map[string]*instrument{}}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, fam.kind, kind))
	}
	in := fam.instruments[suffix]
	if in == nil {
		in = &instrument{labels: suffix, pull: pull}
		if kind == KindHistogram {
			in.hist = NewAtomicHistogram()
		}
		fam.instruments[suffix] = in
	} else if in.pull != pull {
		panic(fmt.Sprintf("telemetry: metric %q%s registered both owned and pull-style", name, suffix))
	}
	if pull {
		bind(in)
	}
	return in
}

// renderLabels sorts labels by key and renders the canonical
// `{k="v",...}` suffix used both as the instrument identity and in the
// exposition output.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelKey(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}
