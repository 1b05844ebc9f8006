package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := PoissonSchedule(7, 5000, 2*time.Second)
	b := PoissonSchedule(7, 5000, 2*time.Second)
	c := PoissonSchedule(8, 5000, 2*time.Second)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("same seed gave different schedules")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if got := float64(len(a)) / 2; math.Abs(got-5000)/5000 > 0.05 {
		t.Fatalf("offered %.0f/s, want about 5000/s", got)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("offset %d = %v is out of order or past the end", i, a[i])
		}
	}
}

func TestHistQuantilesMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHist()
	var xs []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform from 1 ns to 10 s, plus exact small values.
		v := int64(math.Exp(rng.Float64() * math.Log(1e10)))
		if i%10 == 0 {
			v = int64(rng.Intn(64))
		}
		h.Record(v)
		xs = append(xs, v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(xs))))
		want := float64(xs[max(rank, 1)-1])
		got := h.Quantile(q)
		if math.Abs(got-want) > want/32 {
			t.Errorf("q=%v: histogram says %v, sorted slice %v", q, got, want)
		}
	}
	if h.Count() != uint64(len(xs)) {
		t.Fatalf("count %d, want %d", h.Count(), len(xs))
	}
	if NewHist().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile is not 0")
	}
}

func TestKneeSearchFindsKnownKnee(t *testing.T) {
	for _, knee := range []float64{100, 1000, 2600, 15000} {
		for _, startFrac := range []float64{0.3, 0.5, 0.7, 0.95} {
			start := knee * startFrac
			calls := 0
			got, probes := KneeSearch(start, maxProbes, func(rate float64) bool {
				calls++
				return rate <= knee
			})
			if math.Abs(got-knee)/knee > 0.03 {
				t.Errorf("knee %v from %v: found %v", knee, start, got)
			}
			if calls > maxProbes || len(probes) != calls {
				t.Errorf("knee %v from %v: %d calls, %d probes recorded", knee, start, calls, len(probes))
			}
		}
	}
	got, _ := KneeSearch(100, maxProbes, func(float64) bool { return false })
	if got >= 100 {
		t.Errorf("a target failing everywhere reported knee %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a.y", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b.z", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c.w", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := LayerSelf(spans)
	if layers[""] != 50 || layers["a"] != 40 || layers["b"] != 30 || layers["c"] != 10 {
		t.Errorf("layer self times %v", layers)
	}
	if got := Coverage(spans); got != 0.8 {
		t.Errorf("coverage %v, want 0.8", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	id := rec.Begin("x.y", 0)
	rec.End(id)
	if rec.Add("x.z", id, time.Now(), time.Now()) != 0 {
		t.Fatal("nil recorder returned a span ID")
	}
}

func TestCalibrationKernel(t *testing.T) {
	c := newCalibration()
	want := c.kernel()
	if allocs := testing.AllocsPerRun(3, func() {
		if got := c.kernel(); got != want {
			t.Fatalf("kernel returned %v, then %v", want, got)
		}
	}); allocs != 0 {
		t.Errorf("kernel allocates %v times a run", allocs)
	}
	wall, slow, err := c.time(func() error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil || wall < 10*time.Millisecond || slow <= 0 {
		t.Errorf("time: wall %v, slowdown %v, err %v", wall, slow, err)
	}
}

func TestZipfSizes(t *testing.T) {
	sizes := zipfSizes(rand.New(rand.NewSource(3)), 20000, 16, 1.2)
	var ones, sum int
	for _, s := range sizes {
		if s < 1 || s > 16 {
			t.Fatalf("size %d out of [1,16]", s)
		}
		if s == 1 {
			ones++
		}
		sum += s
	}
	var norm, mean float64
	for s := 1; s <= 16; s++ {
		norm += math.Pow(float64(s), -1.2)
		mean += math.Pow(float64(s), -0.2)
	}
	mean /= norm
	if p := float64(ones) / 20000; math.Abs(p-1/norm) > 0.02 {
		t.Errorf("P(size=1) = %.3f, want %.3f", p, 1/norm)
	}
	if m := float64(sum) / 20000; math.Abs(m-mean) > 0.2 {
		t.Errorf("mean size %.2f, want %.2f", m, mean)
	}
}
