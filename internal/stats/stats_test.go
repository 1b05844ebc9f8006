package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(1)
	f1 := g.Fork()
	f2 := g.Fork()
	same := true
	for i := 0; i < 20; i++ {
		if f1.Float64() != f2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("forked RNGs produced identical streams")
	}
}

func TestCategoricalDistribution(t *testing.T) {
	g := NewRNG(7)
	w := []float64{1, 3, 6}
	counts := make([]float64, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := counts[i] / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("value %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := NewRNG(1)
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			g.Categorical(w)
		}()
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(3)
	got := g.SampleWithoutReplacement(10, 10)
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range sample %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	if len(g.SampleWithoutReplacement(10, 0)) != 0 {
		t.Error("m=0 should give empty sample")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("m>n did not panic")
			}
		}()
		g.SampleWithoutReplacement(3, 4)
	}()
}

func TestZipfWeightsDecreasing(t *testing.T) {
	w := ZipfWeights(10, 1.5)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not strictly decreasing at %d", i)
		}
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Median(xs); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
	if got := Min(xs); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v, want 2", got)
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		m, s := MeanStd(xs)
		return math.Abs(m-Mean(xs)) <= 1e-6*(1+math.Abs(m)) &&
			math.Abs(s-StdDev(xs)) <= 1e-4*(1+s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	w := Normalize([]float64{2, 2, 4})
	want := []float64{0.25, 0.25, 0.5}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-15 {
			t.Errorf("Normalize[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Errorf("zero vector should normalize to uniform, got %v", z)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := SqDist(a, b); got != 27 {
		t.Errorf("SqDist = %v, want 27", got)
	}
	if got := Dist(a, b); math.Abs(got-math.Sqrt(27)) > 1e-15 {
		t.Errorf("Dist = %v", got)
	}
	c := Clone(a)
	AddTo(c, b)
	if c[0] != 5 || c[2] != 9 {
		t.Errorf("AddTo = %v", c)
	}
	SubFrom(c, b)
	for i := range c {
		if c[i] != a[i] {
			t.Errorf("SubFrom did not invert AddTo: %v", c)
		}
	}
	Scale(c, 2)
	if c[1] != 4 {
		t.Errorf("Scale = %v", c)
	}
	m := MeanVector([][]float64{{0, 0}, {2, 4}})
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("MeanVector = %v", m)
	}
}

func TestVectorPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":     func() { Dot([]float64{1}, []float64{1, 2}) },
		"SqDist":  func() { SqDist([]float64{1}, []float64{1, 2}) },
		"AddTo":   func() { AddTo([]float64{1}, []float64{1, 2}) },
		"SubFrom": func() { SubFrom([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			f()
		}()
	}
}

// Property: SqDist is symmetric, non-negative, zero iff equal inputs.
func TestSqDistMetricProperties(t *testing.T) {
	f := func(a, b [4]float64) bool {
		av, bv := a[:], b[:]
		for _, x := range append(Clone(av), bv...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		d1, d2 := SqDist(av, bv), SqDist(bv, av)
		if d1 != d2 || d1 < 0 {
			return false
		}
		return SqDist(av, av) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
