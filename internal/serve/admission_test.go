package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/testfix"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// stallGate is a ScoreHook that blocks every scoring task until
// released — the canonical stalled-worker fault.
type stallGate struct {
	entered chan struct{} // one token per task that reached the hook
	release chan struct{} // closed to un-stall everything
}

func newStallGate() *stallGate {
	return &stallGate{entered: make(chan struct{}, 128), release: make(chan struct{})}
}

func (s *stallGate) hook(rows int) {
	s.entered <- struct{}{}
	<-s.release
}

// TestAdmissionQueueFullSheds pins the bounded-queue contract: with one
// slot and a one-deep queue, the third concurrent request is rejected
// with a ShedError while the first two eventually complete.
func TestAdmissionQueueFullSheds(t *testing.T) {
	ds := testfix.Synth(3, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 1)
	stall := newStallGate()
	a, err := NewAssigner(m, Options{
		Workers:       1,
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook:     stall.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	want := sequential(m, ds.Features[:4])

	type result struct {
		out []int
		err error
	}
	results := make(chan result, 2)
	run := func() {
		out, _, err := a.AssignBatch(ds.Features[:4], nil)
		results <- result{out, err}
	}

	go run()
	<-stall.entered // request 1 holds the slot, stalled in scoring
	go run()
	waitFor(t, "request 2 to queue", func() bool { return a.Stats().Queued == 1 })

	// Request 3 arrives with the slot held and the queue full: shed.
	_, _, err = a.AssignBatch(ds.Features[:4], nil)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("third request got %v, want ShedError", err)
	}
	if !IsShed(err) {
		t.Error("IsShed does not recognize the ShedError")
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("ShedError.RetryAfter = %v, want > 0", shed.RetryAfter)
	}

	close(stall.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("admitted request failed: %v", r.err)
		}
		if !reflect.DeepEqual(r.out, want) {
			t.Error("admitted request labelled differently from sequential scan")
		}
	}
	st := a.Stats()
	if st.Shed != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want Shed 1 / Requests 2", st)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
}

// TestAdmissionDeadlineWhileQueued: a queued request whose context
// expires is rejected with an error wrapping context.DeadlineExceeded
// and counted in Stats.Deadline, and the stalled slot-holder still
// completes once the fault clears.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	ds := testfix.Synth(5, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 2)
	stall := newStallGate()
	a, err := NewAssigner(m, Options{
		Workers:       1,
		MaxConcurrent: 1,
		MaxQueue:      8,
		ScoreHook:     stall.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatch(ds.Features[:4], nil)
		done <- err
	}()
	<-stall.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err = a.AssignBatchCtx(ctx, ds.Features[:4], nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request got %v, want DeadlineExceeded", err)
	}
	if IsShed(err) {
		t.Error("deadline expiry misclassified as shed")
	}

	// A single query, a one-row batch, honors the deadline the same way.
	if _, _, err := a.AssignBatchCtx(ctx, ds.Features[:1], nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("one-row AssignBatchCtx after expiry got %v, want DeadlineExceeded", err)
	}

	close(stall.release)
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	st := a.Stats()
	if st.Deadline != 2 {
		t.Errorf("Deadline = %d, want 2", st.Deadline)
	}
}

// TestAdmissionBudgetSheds: once the wait estimator has learned the
// service time, an arrival whose estimated queue wait exceeds
// QueueBudget is shed immediately instead of queueing.
func TestAdmissionBudgetSheds(t *testing.T) {
	ds := testfix.Synth(7, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 3)
	stall := newStallGate()
	var hook func(int)
	slow := false
	hook = func(rows int) {
		if slow {
			stall.hook(rows)
			return
		}
		time.Sleep(30 * time.Millisecond) // seed the EWMA well above budget
	}
	a, err := NewAssigner(m, Options{
		Workers:       1,
		MaxConcurrent: 1,
		MaxQueue:      64,
		QueueBudget:   5 * time.Millisecond,
		ScoreHook:     func(rows int) { hook(rows) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// First request completes in ~30ms, seeding the service-time EWMA.
	if _, _, err := a.AssignBatch(ds.Features[:4], nil); err != nil {
		t.Fatal(err)
	}

	// Now stall the slot and queue one arrival behind it: its estimated
	// wait (1 × ~30ms / 1 slot) blows the 5ms budget → shed.
	slow = true
	holder := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatch(ds.Features[:4], nil)
		holder <- err
	}()
	<-stall.entered

	_, _, err = a.AssignBatch(ds.Features[:4], nil)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-budget arrival got %v, want ShedError", err)
	}
	if shed.RetryAfter < 5*time.Millisecond {
		t.Errorf("RetryAfter = %v, want >= the estimated wait", shed.RetryAfter)
	}

	close(stall.release)
	if err := <-holder; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
}

// TestDeadlineMidBatchPooled: a pooled batch whose context expires
// mid-flight returns DeadlineExceeded promptly — even though one
// micro-batch is still pinned on a stalled worker — and the orphaned
// task drains without racing Close.
func TestDeadlineMidBatchPooled(t *testing.T) {
	ds := testfix.Synth(9, 300, 4, 1, 0)
	m := trainModel(t, ds, 4, 4)
	stall := newStallGate()
	first := true
	var mu sync.Mutex
	a, err := NewAssigner(m, Options{
		Workers:   2,
		BatchSize: 16,
		ScoreHook: func(rows int) {
			mu.Lock()
			f := first
			first = false
			mu.Unlock()
			if f {
				stall.hook(rows) // first micro-batch stalls hard
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = a.AssignBatchCtx(ctx, ds.Features, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled batch got %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("request stuck %v behind a stalled worker; deadline should free it", waited)
	}
	if st := a.Stats(); st.Deadline != 1 {
		t.Errorf("Deadline = %d, want 1", st.Deadline)
	}

	// Un-stall and close: the orphaned micro-batch must drain cleanly.
	close(stall.release)
	a.Close()

	// A fresh assigner still serves correct results (no shared damage).
	b, err := NewAssigner(m, Options{Workers: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, _, err := b.AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sequential(m, ds.Features)) {
		t.Error("post-fault labelling differs from sequential scan")
	}
}

// TestDeadlineRacesCompletion: pooled requests whose deadlines expire
// around the moment their last stride finishes. Either the caller or
// the last worker out recycles each job, exactly once: every request
// either succeeds with the sequential labelling or fails with
// DeadlineExceeded, Close returns, and later requests reusing the
// pooled jobs see no stale completion signal.
func TestDeadlineRacesCompletion(t *testing.T) {
	ds := testfix.Synth(12, 240, 4, 1, 0)
	m := trainModel(t, ds, 4, 6)
	want := sequential(m, ds.Features)
	a, err := NewAssigner(m, Options{Workers: 3, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((g+i)%6)*15*time.Microsecond)
				got, _, err := a.AssignBatchCtx(ctx, ds.Features, nil)
				cancel()
				switch {
				case err == nil && !reflect.DeepEqual(got, want):
					t.Error("racing request got a different labelling")
				case err != nil && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("racing request got %v, want success or DeadlineExceeded", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := a.Stats(); st.Requests+st.Deadline != clients*perClient {
		t.Errorf("%d ok + %d deadline, want %d requests accounted for", st.Requests, st.Deadline, clients*perClient)
	}
	for i := 0; i < 50; i++ {
		got, _, err := a.AssignBatch(ds.Features, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("request after the deadline storm differs from the sequential scan")
		}
	}
	a.Close()
}

// TestGatedDeterminism: admission control must never change what a row
// scores against — gated results are identical to the ungated
// sequential scan for every pool shape.
func TestGatedDeterminism(t *testing.T) {
	ds := testfix.Synth(11, 400, 5, 2, 0)
	m := trainModel(t, ds, 5, 5)
	want := sequential(m, ds.Features)
	for _, workers := range []int{1, 4} {
		a, err := NewAssigner(m, Options{
			Workers:       workers,
			BatchSize:     32,
			MaxConcurrent: 2,
			MaxQueue:      4,
			QueueBudget:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := a.AssignBatchCtx(context.Background(), ds.Features, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- errors.New("gated labelling differs from sequential scan")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			// Background contexts never expire and MaxQueue 4 < 8
			// clients can shed under load; sheds are acceptable here,
			// wrong labels are not.
			if !IsShed(err) {
				t.Error(err)
			}
		}
		a.Close()
	}
}
