package serve

import (
	"context"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// TestHotPathAllocs pins the steady-state allocation budget of the
// serving hot path. AssignBatch may allocate only its two result
// slices (labels + distances); the pool machinery (jobs, their
// completion signals, scratch, worker wakeups) must come from
// sync.Pools after warm-up. The same bound holds under a cancellable
// context, the shape every fairserved request has. A regression here
// shows up long before it shows up in ns/op — GC pressure under
// open-loop load is what breaks the SLO tail.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	ds := testfix.Adult(1, 512)
	m := trainModel(t, ds, 15, 1)
	rows := ds.Features

	a, err := NewAssigner(m, Options{Workers: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Warm the job/scratch pools before measuring.
	for i := 0; i < 4; i++ {
		if _, _, err := a.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	}

	batch := testing.AllocsPerRun(20, func() {
		if _, _, err := a.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	// out + dists, with headroom for a pool refill on an unlucky GC.
	if batch > 3 {
		t.Errorf("AssignBatch allocs/op = %.1f, want <= 3", batch)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := testing.AllocsPerRun(20, func() {
		if _, _, err := a.AssignBatchCtx(ctx, rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	if served > 3 {
		t.Errorf("AssignBatchCtx (cancellable) allocs/op = %.1f, want <= 3", served)
	}

	// Tracing on: the span bookkeeping (stage histogram records, flight
	// recorder) must add nothing beyond the trace-done defer itself.
	at, err := NewAssigner(m, Options{Workers: 2, BatchSize: 64, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer at.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := at.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	}
	traced := testing.AllocsPerRun(20, func() {
		if _, _, err := at.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	if traced > batch+1 {
		t.Errorf("traced AssignBatch allocs/op = %.1f, want <= untraced %.1f + 1", traced, batch)
	}
}
