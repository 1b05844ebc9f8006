package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one containing %q", r, want)
		}
	}()
	fn()
}

func TestRegistryInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "Requests.", Label{Key: "model", Value: "m"})
	a.Add(3)
	// Same (family, labels) — label order must not matter.
	b := r.Counter("reqs_total", "Requests.",
		Label{Key: "model", Value: "m"})
	if b.Value() != 3 {
		t.Fatalf("re-registration lost the count: %d", b.Value())
	}
	two := r.Counter("multi_total", "Multi.",
		Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	two.Inc()
	same := r.Counter("multi_total", "Multi.",
		Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	if same.Value() != 1 {
		t.Fatal("label order changed instrument identity")
	}
}

func TestRegistryGaugeAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("lat_seconds", "Latency.")
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	if snap := h.Snapshot(); snap.Count() != 2 || snap.Min() != 10*time.Millisecond {
		t.Fatalf("histogram snapshot: %+v", snap.Summarize())
	}
}

func TestRegistryContractPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "OK.")
	mustPanic(t, "registered as counter and gauge", func() {
		r.Gauge("ok_total", "Not a counter.")
	})
	mustPanic(t, "invalid metric name", func() { r.Counter("0bad", "Leading digit.") })
	mustPanic(t, "invalid metric name", func() { r.Counter("sp ace", "Space.") })
	mustPanic(t, "invalid metric name", func() { r.Counter("", "Empty.") })
	mustPanic(t, "invalid label key", func() {
		r.Counter("lbl_total", "Bad key.", Label{Key: "a:b", Value: "v"})
	})
	r.CounterFunc("pull_total", "Pull.", func() uint64 { return 1 })
	mustPanic(t, "owned and pull-style", func() { r.Counter("pull_total", "Owned.") })
}

func TestRegistryFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "Gauge.", func() float64 { return 1 })
	r.GaugeFunc("g", "Gauge.", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 2\n") {
		t.Fatalf("fn replacement not effective:\n%s", b.String())
	}
}

// TestRegistryRebindDuringScrape re-registers one pull instrument
// while scrapes run, as a model install rebinds its live-generation
// series under a concurrent /metrics scrape. The new fn must be stored
// under the registry lock the writer reads it under (go test -race).
func TestRegistryRebindDuringScrape(t *testing.T) {
	r := NewRegistry()
	l := Label{Key: "model", Value: "m"}
	r.GaugeFunc("live", "Live.", func() float64 { return 0 }, l)
	r.CounterFunc("live_total", "Live.", func() uint64 { return 0 }, l)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		v := i
		r.GaugeFunc("live", "Live.", func() float64 { return float64(v) }, l)
		r.CounterFunc("live_total", "Live.", func() uint64 { return uint64(v) }, l)
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`live{model="m"} 199`, `live_total{model="m"} 199`} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Fatalf("last binding not rendered: missing %q in\n%s", want, b.String())
		}
	}
}
