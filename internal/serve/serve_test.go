package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/testfix"
)

// trainModel fits FairKM on a fixture and wraps it as an artifact.
func trainModel(t testing.TB, ds *dataset.Dataset, k int, seed int64) *model.Model {
	t.Helper()
	res, err := core.Run(ds, core.Config{K: k, AutoLambda: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "test", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m.Name = fmt.Sprintf("m%d", seed)
	return m
}

// sequential is the reference labelling: a plain scan on one goroutine.
func sequential(m *model.Model, rows [][]float64) []int {
	out := make([]int, len(rows))
	for i, x := range rows {
		out[i] = m.Assign(x)
	}
	return out
}

// TestAssignerDeterministic pins the concurrency contract: every
// worker count × batch size yields exactly the sequential labelling,
// in order. Run under -race in CI.
func TestAssignerDeterministic(t *testing.T) {
	ds := testfix.Synth(21, 700, 5, 2, 0)
	m := trainModel(t, ds, 6, 3)
	want := sequential(m, ds.Features)

	for _, workers := range []int{1, 2, 3, 8} {
		for _, batch := range []int{1, 7, 64, 1000} {
			t.Run(fmt.Sprintf("w%d_b%d", workers, batch), func(t *testing.T) {
				a, err := NewAssigner(m, Options{Workers: workers, BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				got, dists, err := a.AssignBatch(ds.Features, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("batch labelling differs from sequential scan")
				}
				for i, x := range ds.Features {
					c, d, err := a.AssignBatch([][]float64{x}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if c[0] != want[i] || d[0] != dists[i] {
						t.Fatalf("one-row query %d: (%d,%v) vs batch (%d,%v)", i, c[0], d[0], want[i], dists[i])
					}
				}
			})
		}
	}
}

// TestAssignerConcurrentClients hammers one assigner from many
// goroutines; every client must see the reference labelling.
func TestAssignerConcurrentClients(t *testing.T) {
	ds := testfix.Synth(4, 500, 4, 1, 0)
	m := trainModel(t, ds, 5, 9)
	want := sequential(m, ds.Features)
	a, err := NewAssigner(m, Options{Workers: 4, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := a.AssignBatch(ds.Features, nil)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("concurrent client got a different labelling")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := a.Stats()
	if st.Requests != 16 || st.Rows != uint64(16*ds.N()) {
		t.Errorf("stats = %d req / %d rows, want 16 / %d", st.Requests, st.Rows, 16*ds.N())
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Errorf("implausible latency quantiles p50=%v p99=%v", st.P50, st.P99)
	}
}

// TestAssignerDimensionMismatch: malformed queries error, never panic.
func TestAssignerDimensionMismatch(t *testing.T) {
	ds := testfix.Synth(8, 100, 3, 1, 0)
	a, err := NewAssigner(trainModel(t, ds, 3, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, _, err := a.AssignBatch([][]float64{{1}}, nil); err == nil {
		t.Error("short vector accepted")
	}
	if _, _, err := a.AssignBatch([][]float64{{1, 2, 3}, {1}}, nil); err == nil {
		t.Error("ragged batch accepted")
	}
	if _, _, err := a.AssignBatch(ds.Features[:3], make([]map[string]string, 2)); err == nil {
		t.Error("mismatched sensitive slice accepted")
	}
}

// TestAssignAfterClose: a request that raced past a swap still gets
// correct results from a closed assigner (inline path).
func TestAssignAfterClose(t *testing.T) {
	ds := testfix.Synth(5, 300, 4, 1, 0)
	m := trainModel(t, ds, 4, 2)
	want := sequential(m, ds.Features)
	a, err := NewAssigner(m, Options{Workers: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // idempotent
	got, _, err := a.AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("closed assigner labels differently")
	}
}

// TestRegistryHotSwap swaps models under concurrent load and checks
// that every response is consistent with ONE of the two models — never
// a torn mix — and that late responses eventually come from the new
// model only.
func TestRegistryHotSwap(t *testing.T) {
	ds := testfix.Synth(31, 400, 4, 1, 0)
	mA := trainModel(t, ds, 4, 100) // different seeds → different centroids
	mB := trainModel(t, ds, 4, 200)
	wantA := sequential(mA, ds.Features)
	wantB := sequential(mB, ds.Features)
	if reflect.DeepEqual(wantA, wantB) {
		t.Fatal("fixture models agree everywhere; hot-swap test needs distinguishable models")
	}

	reg := NewRegistry(Options{Workers: 2, BatchSize: 32})
	if _, err := reg.Install("prod", "", mA); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var stop atomic.Bool
	var sawA, sawB, torn atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, err := reg.Get("prod")
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := e.Assigner().AssignBatch(ds.Features, nil)
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case reflect.DeepEqual(got, wantA):
					sawA.Add(1)
				case reflect.DeepEqual(got, wantB):
					sawB.Add(1)
				default:
					torn.Add(1)
				}
			}
		}()
	}

	// Swap A→B→A→…→B under load, letting clients get responses in
	// between so the race window is actually exercised.
	models := []*model.Model{mB, mA, mB, mA, mB}
	for _, m := range models {
		seen := sawA.Load() + sawB.Load()
		for sawA.Load()+sawB.Load() < seen+4 {
			runtime.Gosched()
		}
		if _, err := reg.Install("prod", "", m); err != nil {
			t.Fatal(err)
		}
	}
	for sawA.Load()+sawB.Load() < 64 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if torn.Load() > 0 {
		t.Fatalf("%d torn responses (neither model A nor model B)", torn.Load())
	}
	if sawA.Load()+sawB.Load() == 0 {
		t.Fatal("no responses observed")
	}
	// After the dust settles the registry must serve exactly model B.
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.Assigner().AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantB) {
		t.Fatal("final model is not the last installed one")
	}
	if e.Generation != 6 {
		t.Errorf("generation = %d after 6 installs, want 6", e.Generation)
	}
}

func TestRegistryNamesAndDefault(t *testing.T) {
	ds := testfix.Synth(6, 120, 3, 1, 0)
	reg := NewRegistry(Options{})
	defer reg.Close()
	if _, err := reg.Get(""); err == nil {
		t.Error("empty registry resolved a model")
	}
	m1 := trainModel(t, ds, 3, 1)
	m2 := trainModel(t, ds, 3, 2)
	if _, err := reg.Install("alpha", "", m1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("beta", "", m2); err != nil {
		t.Fatal(err)
	}
	if reg.Default() != "alpha" {
		t.Errorf("default = %q, want alpha (first installed)", reg.Default())
	}
	e, err := reg.Get("")
	if err != nil || e.Name != "alpha" {
		t.Errorf("Get(\"\") = %v, %v; want alpha", e, err)
	}
	if _, err := reg.Get("gamma"); err == nil {
		t.Error("unknown name resolved")
	}
	list := reg.List()
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Errorf("List() = %v", list)
	}
	if _, err := reg.Reload("alpha", ""); err == nil {
		t.Error("Reload of a pathless model succeeded")
	}
	if _, err := reg.Reload("gamma", ""); err == nil {
		t.Error("Reload of an unknown model succeeded")
	}
}

// TestDrift feeds the assigner traffic with a sensitive mix that is
// deliberately skewed relative to training and checks the report sees
// it.
func TestDrift(t *testing.T) {
	ds := testfix.Synth(13, 400, 3, 1, 0)
	m := trainModel(t, ds, 3, 5)
	attr := m.Sensitive[m.CategoricalAttrs()[0]]
	a, err := NewAssigner(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Before any traffic: training side only.
	reps := a.Drift()
	if len(reps) == 0 {
		t.Fatal("no drift reports for a model with categorical attributes")
	}
	if reps[0].ObservedRows != 0 || reps[0].MaxTV != 0 {
		t.Errorf("pre-traffic drift report = %+v", reps[0])
	}

	// Replay the training rows with their true values. Serving assigns
	// nearest-centroid while FairKM's training assignment also weighed
	// the fairness term, so the observed mix is close to — but not
	// exactly — the training distributions: small TV distance, nowhere
	// near the skewed-traffic level below.
	src := ds.SensitiveByName(attr.Name)
	for i, x := range ds.Features {
		sv := map[string]string{attr.Name: src.Values[src.Codes[i]]}
		if _, _, err := a.AssignBatch([][]float64{x}, []map[string]string{sv}); err != nil {
			t.Fatal(err)
		}
	}
	reps = a.Drift()
	if reps[0].ObservedRows != uint64(ds.N()) {
		t.Errorf("observed %d rows, want %d", reps[0].ObservedRows, ds.N())
	}
	replayTV := reps[0].MaxTV
	if replayTV > 0.1 {
		t.Errorf("replaying training data drifted MaxTV=%v", replayTV)
	}
	if math.Abs(reps[0].Observed.AE-reps[0].Training.AE) > 0.1 {
		t.Errorf("replayed AE %v far from training AE %v", reps[0].Observed.AE, reps[0].Training.AE)
	}

	// Now hammer one value (including an unseen one): drift must rise.
	b, err := NewAssigner(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, x := range ds.Features {
		v := attr.Values[0]
		if i%5 == 0 {
			v = "unseen-segment"
		}
		if _, _, err := b.AssignBatch([][]float64{x}, []map[string]string{{attr.Name: v}}); err != nil {
			t.Fatal(err)
		}
	}
	reps = b.Drift()
	if reps[0].MaxTV < 0.1 || reps[0].MaxTV <= replayTV {
		t.Errorf("skewed traffic reported MaxTV=%v (replay was %v), want substantial drift", reps[0].MaxTV, replayTV)
	}
	if reps[0].Observed.AE == reps[0].Training.AE {
		t.Error("skewed traffic did not move the observed fairness report")
	}
}

// TestNonFiniteDistance: finite but huge features overflow the winning
// squared distance. Both entry points must fail the request, naming
// the row, and record nothing: no request, no row, no drift.
func TestNonFiniteDistance(t *testing.T) {
	ds := testfix.Synth(13, 200, 3, 1, 0)
	m := trainModel(t, ds, 3, 5)
	attr := m.Sensitive[m.CategoricalAttrs()[0]].Name
	sv := map[string]string{attr: "a"}
	huge := []float64{1e200, 1e200, 1e200}
	for _, opts := range []Options{{Workers: 1}, {Workers: 2, BatchSize: 1}} {
		a, err := NewAssigner(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.AssignBatch([][]float64{huge}, []map[string]string{sv}); err == nil || !strings.Contains(err.Error(), "row 0") {
			t.Errorf("one-row AssignBatch(%v) err = %v, want a non-finite error naming row 0", huge, err)
		}
		rows := [][]float64{ds.Features[0], ds.Features[1], huge}
		if _, _, err := a.AssignBatch(rows, []map[string]string{sv, sv, sv}); err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("AssignBatch err = %v, want a non-finite error naming row 2", err)
		}
		if st := a.Stats(); st.Requests != 0 || st.Rows != 0 {
			t.Errorf("rejected requests were counted: %+v", st)
		}
		if reps := a.Drift(); reps[0].ObservedRows != 0 {
			t.Errorf("rejected rows were observed for drift: %+v", reps[0])
		}
		a.Close()
	}
}

// TestDriftBatchMatchesRows replays one labelled stream — training
// values, values training never saw, "", attributes left out, keys the
// model does not track, rows with no values — through four shapes of
// traffic: one request per row, one batch through the map adapter,
// uneven batches, and one batch of Labels built from value bytes. The
// batch paths tally each request and merge it under one lock; their
// Drift reports must equal the row-by-row ones bit for bit.
func TestDriftBatchMatchesRows(t *testing.T) {
	ds := testfix.Adult(1, 512)
	m := trainModel(t, ds, 15, 1)
	sens := make([]map[string]string, ds.N())
	for i := range sens {
		if i%11 == 10 {
			continue // no values at all
		}
		sv := map[string]string{"untracked": "x"}
		for ai, at := range ds.Sensitive {
			v := at.Values[at.Codes[i]]
			switch {
			case (i+ai)%7 == 0:
				continue // attribute left out
			case (i+ai)%13 == 0:
				v = fmt.Sprintf("unseen-%d", i%3)
			case (i+ai)%17 == 0:
				v = ""
			}
			sv[at.Name] = v
		}
		sens[i] = sv
	}
	newA := func() *Assigner {
		a, err := NewAssigner(m, Options{Workers: 2, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return a
	}
	report := func(a *Assigner) string { return fmt.Sprintf("%#v", a.Drift()) }

	rowByRow := newA()
	clusters := make([]int, ds.N())
	for i, x := range ds.Features {
		out, _, err := rowByRow.AssignBatch([][]float64{x}, sens[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = out[0]
	}
	want := report(rowByRow)

	// The drift state itself against a from-scratch count: training
	// values keep their codes, others take the next code in order of
	// first sight, and each row adds one to its cluster's value.
	rowByRow.stats.driftMu.Lock()
	for _, da := range rowByRow.stats.attrs {
		values := append([]string(nil), m.Sensitive[da.ai].Values...)
		counts := make([][]float64, m.K)
		for c := range counts {
			counts[c] = make([]float64, len(values))
		}
		seen := uint64(0)
		for i, sv := range sens {
			v, ok := sv[da.name]
			if !ok {
				continue
			}
			code := slices.Index(values, v)
			if code < 0 {
				code = len(values)
				values = append(values, v)
			}
			c := clusters[i]
			for len(counts[c]) <= code {
				counts[c] = append(counts[c], 0)
			}
			counts[c][code]++
			seen++
		}
		if !reflect.DeepEqual(da.dom.Values(), values) || !reflect.DeepEqual(da.counts, counts) || da.seen != seen {
			t.Errorf("%s: drift state\n values %q counts %v seen %d\nwant\n values %q counts %v seen %d", da.name, da.dom.Values(), da.counts, da.seen, values, counts, seen)
		}
	}
	rowByRow.stats.driftMu.Unlock()

	batch := newA()
	if _, _, err := batch.AssignBatch(ds.Features, sens); err != nil {
		t.Fatal(err)
	}
	uneven := newA()
	for lo, step := 0, 1; lo < ds.N(); lo, step = lo+step, step*2+1 {
		hi := min(lo+step, ds.N())
		if _, _, err := uneven.AssignBatch(ds.Features[lo:hi], sens[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	codes := newA()
	l := codes.NewLabels(ds.N())
	for i, sv := range sens {
		for k, v := range sv {
			if s := l.Slot([]byte(k)); s >= 0 {
				l.Set(i, s, []byte(v))
			}
		}
	}
	if _, _, err := codes.AssignLabelled(context.Background(), ds.Features, l); err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Assigner{"one batch": batch, "uneven batches": uneven, "labels": codes} {
		if got := report(a); got != want {
			t.Errorf("%s: drift differs from row-by-row observation\n got %s\nwant %s", name, got, want)
		}
	}

	// Labels belong to the Assigner that built them.
	if _, _, err := rowByRow.AssignLabelled(context.Background(), ds.Features, l); err == nil {
		t.Error("labels built by another Assigner were accepted")
	}
}
