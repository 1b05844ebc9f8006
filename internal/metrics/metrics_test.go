package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func twoBlobDataset(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	b := dataset.NewBuilder("x", "y")
	b.AddCategoricalSensitive("g")
	rng := stats.NewRNG(3)
	assign := make([]int, 0, 40)
	for i := 0; i < 20; i++ {
		b.Row([]float64{rng.Gaussian(0, 0.2), rng.Gaussian(0, 0.2)}, []string{pick(i, "a", "b", 4)}, nil)
		assign = append(assign, 0)
	}
	for i := 0; i < 20; i++ {
		b.Row([]float64{rng.Gaussian(10, 0.2), rng.Gaussian(10, 0.2)}, []string{pick(i, "b", "a", 4)}, nil)
		assign = append(assign, 1)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, assign
}

// pick returns major except every nth index, which gets minor.
func pick(i int, major, minor string, n int) string {
	if i%n == 0 {
		return minor
	}
	return major
}

func TestWasserstein1KnownValues(t *testing.T) {
	cases := []struct {
		p, q []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{0, 1}, 1},
		{[]float64{0.5, 0.5}, []float64{0.5, 0.5}, 0},
		{[]float64{1, 0, 0}, []float64{0, 0, 1}, 2},
		{[]float64{0.5, 0, 0.5}, []float64{0, 1, 0}, 0.5 + 0.5},
		{[]float64{0.7, 0.3}, []float64{0.4, 0.6}, 0.3},
	}
	for i, c := range cases {
		if got := Wasserstein1(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: W1 = %v, want %v", i, got, c.want)
		}
	}
}

func TestWasserstein1MetricAxioms(t *testing.T) {
	// quick generates arbitrary float64s, including ±Inf and ~1e308
	// magnitudes whose 5-term sum overflows; Normalize would then map
	// every entry to 0 and trip Wasserstein1's mass check. Fold each
	// draw into a finite positive weight first — the axioms under test
	// are about the transport metric, not about overflow handling.
	weight := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return math.Mod(math.Abs(x), 1e6) + .01
	}
	f := func(a, b [5]float64) bool {
		p := stats.Normalize([]float64{weight(a[0]), weight(a[1]), weight(a[2]), weight(a[3]), weight(a[4])})
		q := stats.Normalize([]float64{weight(b[0]), weight(b[1]), weight(b[2]), weight(b[3]), weight(b[4])})
		d1, d2 := Wasserstein1(p, q), Wasserstein1(q, p)
		if math.Abs(d1-d2) > 1e-12 || d1 < 0 {
			return false
		}
		return Wasserstein1(p, p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWasserstein1TriangleInequality(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(6)
		p, q, r := randDist(rng, n), randDist(rng, n), randDist(rng, n)
		if Wasserstein1(p, r) > Wasserstein1(p, q)+Wasserstein1(q, r)+1e-12 {
			t.Fatalf("triangle inequality violated: %v %v %v", p, q, r)
		}
	}
}

func randDist(rng *stats.RNG, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64() + 0.001
	}
	return stats.Normalize(d)
}

func TestEuclideanVsWassersteinBinary(t *testing.T) {
	// For binary distributions ED = √2·|p−q| and W1 = |p−q|.
	p := []float64{0.8, 0.2}
	q := []float64{0.5, 0.5}
	if got, want := Euclidean(p, q), math.Sqrt2*0.3; math.Abs(got-want) > 1e-12 {
		t.Errorf("ED = %v, want %v", got, want)
	}
	if got := Wasserstein1(p, q); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("W1 = %v, want 0.3", got)
	}
}

func TestCOMatchesKMeansObjective(t *testing.T) {
	ds, assign := twoBlobDataset(t)
	co := CO(ds.Features, assign, 2)
	// Hand-compute.
	manual := 0.0
	for c := 0; c < 2; c++ {
		var members [][]float64
		for i, a := range assign {
			if a == c {
				members = append(members, ds.Features[i])
			}
		}
		mu := stats.MeanVector(members)
		for _, x := range members {
			manual += stats.SqDist(x, mu)
		}
	}
	if math.Abs(co-manual) > 1e-9 {
		t.Errorf("CO = %v, manual %v", co, manual)
	}
}

func TestSilhouetteSeparatedBlobs(t *testing.T) {
	ds, assign := twoBlobDataset(t)
	sh := Silhouette(ds.Features, assign, 2)
	if sh < 0.9 {
		t.Errorf("silhouette of well-separated blobs = %v, want > 0.9", sh)
	}
	// Deliberately bad assignment: split each blob in half.
	bad := make([]int, len(assign))
	for i := range bad {
		bad[i] = i % 2
	}
	shBad := Silhouette(ds.Features, bad, 2)
	if shBad >= sh {
		t.Errorf("bad assignment silhouette %v >= good %v", shBad, sh)
	}
}

func TestSilhouetteSampledApproximatesExact(t *testing.T) {
	ds, assign := twoBlobDataset(t)
	exact := Silhouette(ds.Features, assign, 2)
	sampled := SilhouetteSampled(ds.Features, assign, 2, 25, 9)
	if math.Abs(exact-sampled) > 0.1 {
		t.Errorf("sampled %v too far from exact %v", sampled, exact)
	}
	full := SilhouetteSampled(ds.Features, assign, 2, 1000, 9)
	if full != exact {
		t.Errorf("sample >= n should be exact: %v vs %v", full, exact)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	// Single cluster: defined as 0.
	feats := [][]float64{{0}, {1}, {2}}
	if got := Silhouette(feats, []int{0, 0, 0}, 1); got != 0 {
		t.Errorf("single cluster silhouette = %v", got)
	}
	// Singletons score 0.
	if got := Silhouette(feats, []int{0, 1, 2}, 3); got != 0 {
		t.Errorf("all-singleton silhouette = %v", got)
	}
}

func TestDevOIdenticalAndOpposite(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if got := DevO(a, a, 2, 2); got != 0 {
		t.Errorf("DevO(a,a) = %v, want 0", got)
	}
	// Relabeled clustering is the same partition: still 0.
	b := []int{1, 1, 0, 0}
	if got := DevO(a, b, 2, 2); got != 0 {
		t.Errorf("DevO under relabeling = %v, want 0", got)
	}
	// Fully crossed: {0,1},{2,3} vs {0,2},{1,3} — every same-pair in A
	// is split in B and vice versa: 4 disagreements of 6 pairs.
	c := []int{0, 1, 0, 1}
	if got, want := DevO(a, c, 2, 2), 4.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("DevO crossed = %v, want %v", got, want)
	}
}

func TestDevOBruteForce(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		k1, k2 := 1+rng.Intn(4), 1+rng.Intn(4)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i], b[i] = rng.Intn(k1), rng.Intn(k2)
		}
		want := 0.0
		pairs := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sameA := a[i] == a[j]
				sameB := b[i] == b[j]
				if sameA != sameB {
					want++
				}
				pairs++
			}
		}
		want /= pairs
		if got := DevO(a, b, k1, k2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: DevO = %v, brute force %v", trial, got, want)
		}
	}
}

func TestDevCZeroForIdentical(t *testing.T) {
	ds, assign := twoBlobDataset(t)
	if got := DevC(ds.Features, assign, assign, 2); got != 0 {
		t.Errorf("DevC identical = %v, want 0", got)
	}
	// Relabeled: matching makes it still 0.
	relabeled := make([]int, len(assign))
	for i, c := range assign {
		relabeled[i] = 1 - c
	}
	if got := DevC(ds.Features, assign, relabeled, 2); got > 1e-12 {
		t.Errorf("DevC relabeled = %v, want 0", got)
	}
	// A genuinely different clustering must be positive.
	bad := make([]int, len(assign))
	for i := range bad {
		bad[i] = i % 2
	}
	if got := DevC(ds.Features, assign, bad, 2); got <= 0 {
		t.Errorf("DevC different = %v, want > 0", got)
	}
}

func TestFairnessPerfectAndSkewed(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	vals := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	for i, v := range vals {
		b.Row([]float64{float64(i)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := ds.SensitiveByName("g")
	// Perfectly proportional clusters.
	fair := Fairness(ds, g, []int{0, 0, 0, 0, 1, 1, 1, 1}, 2)
	if fair.AE != 0 || fair.AW != 0 || fair.ME != 0 || fair.MW != 0 {
		t.Errorf("proportional clustering not zero: %+v", fair)
	}
	// Fully separated: each cluster pure; distribution (1,0) vs (.5,.5).
	skew := Fairness(ds, g, []int{0, 1, 0, 1, 0, 1, 0, 1}, 2)
	wantED := math.Sqrt2 * 0.5
	if math.Abs(skew.AE-wantED) > 1e-12 || math.Abs(skew.ME-wantED) > 1e-12 {
		t.Errorf("pure clusters AE/ME = %v/%v, want %v", skew.AE, skew.ME, wantED)
	}
	if math.Abs(skew.AW-0.5) > 1e-12 || math.Abs(skew.MW-0.5) > 1e-12 {
		t.Errorf("pure clusters AW/MW = %v/%v, want 0.5", skew.AW, skew.MW)
	}
}

func TestFairnessWeightsByCardinality(t *testing.T) {
	// Cluster 0 has 6 points perfectly proportional; cluster 1 has 2
	// points fully skewed. AE must be the 6:2 weighted average.
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	vals := []string{"a", "a", "a", "b", "b", "b", "a", "a"}
	for i, v := range vals {
		b.Row([]float64{float64(i)}, []string{v}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := ds.SensitiveByName("g")
	assign := []int{0, 0, 0, 0, 0, 0, 1, 1}
	rep := Fairness(ds, g, assign, 2)
	frX := []float64{5.0 / 8, 3.0 / 8}
	c0 := []float64{3.0 / 6, 3.0 / 6}
	c1 := []float64{1, 0}
	wantAE := (6*Euclidean(c0, frX) + 2*Euclidean(c1, frX)) / 8
	if math.Abs(rep.AE-wantAE) > 1e-12 {
		t.Errorf("AE = %v, want %v", rep.AE, wantAE)
	}
	wantME := Euclidean(c1, frX)
	if math.Abs(rep.ME-wantME) > 1e-12 {
		t.Errorf("ME = %v, want %v", rep.ME, wantME)
	}
}

func TestFairnessAllIncludesMean(t *testing.T) {
	ds, assign := twoBlobDataset(t)
	reps := FairnessAll(ds, assign, 2)
	if len(reps) != 2 {
		t.Fatalf("got %d reports, want 2 (attr + mean)", len(reps))
	}
	if reps[len(reps)-1].Attribute != "mean" {
		t.Errorf("last report is %q, want mean", reps[len(reps)-1].Attribute)
	}
	if reps[0].AE != reps[1].AE {
		t.Errorf("with one attribute mean must equal it")
	}
}

func TestBalance(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddCategoricalSensitive("g")
	vals := []string{"a", "a", "b", "b"}
	for i, v := range vals {
		b.Row([]float64{float64(i)}, []string{v}, nil)
	}
	ds, _ := b.Build()
	g := ds.SensitiveByName("g")
	if got := Balance(g, []int{0, 1, 0, 1}, 2); got != 1 {
		t.Errorf("balanced clustering balance = %v, want 1", got)
	}
	if got := Balance(g, []int{0, 0, 1, 1}, 2); got != 0 {
		t.Errorf("segregated clustering balance = %v, want 0", got)
	}
}

func TestNumericFairness(t *testing.T) {
	b := dataset.NewBuilder("x")
	b.AddNumericSensitive("age")
	ages := []float64{20, 40, 20, 40, 20, 40}
	for i, a := range ages {
		b.Row([]float64{float64(i)}, nil, []float64{a})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	age := ds.SensitiveByName("age")
	// Balanced clusters: every cluster mean = 30 = dataset mean.
	fair := NumericFairness(age, []int{0, 0, 1, 1, 2, 2}, 3)
	if fair.AvgGap != 0 || fair.MaxGap != 0 {
		t.Errorf("balanced clustering gaps = %+v, want 0", fair)
	}
	// Segregated: cluster means 20 and 40, gaps of 10.
	skew := NumericFairness(age, []int{0, 1, 0, 1, 0, 1}, 2)
	if math.Abs(skew.AvgGap-10) > 1e-12 || math.Abs(skew.MaxGap-10) > 1e-12 {
		t.Errorf("segregated gaps = %+v, want 10", skew)
	}
	if skew.NormAvgGap <= 0 {
		t.Errorf("normalized gap = %v, want > 0", skew.NormAvgGap)
	}
	// Panics on categorical input.
	bc := dataset.NewBuilder("x")
	bc.AddCategoricalSensitive("g")
	bc.Row([]float64{1}, []string{"a"}, nil)
	cds, _ := bc.Build()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on categorical attribute")
		}
	}()
	NumericFairness(cds.SensitiveByName("g"), []int{0}, 1)
}

// TestSilhouetteRange: silhouette must always be within [-1, 1]
// (property-based over random assignments).
func TestSilhouetteRange(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(30)
		k := 1 + rng.Intn(5)
		feats := make([][]float64, n)
		assign := make([]int, n)
		for i := range feats {
			feats[i] = []float64{rng.Gaussian(0, 3), rng.Gaussian(0, 3)}
			assign[i] = rng.Intn(k)
		}
		sh := Silhouette(feats, assign, k)
		if sh < -1-1e-12 || sh > 1+1e-12 {
			t.Fatalf("trial %d: silhouette %v outside [-1,1]", trial, sh)
		}
	}
}

// TestDevORange: DevO is a fraction of pairs, hence in [0, 1].
func TestDevORange(t *testing.T) {
	rng := stats.NewRNG(22)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		k1, k2 := 1+rng.Intn(5), 1+rng.Intn(5)
		a := make([]int, n)
		bb := make([]int, n)
		for i := range a {
			a[i], bb[i] = rng.Intn(k1), rng.Intn(k2)
		}
		d := DevO(a, bb, k1, k2)
		if d < 0 || d > 1 {
			t.Fatalf("DevO %v outside [0,1]", d)
		}
	}
}

// TestWasserstein1UpperBound: with unit ground distance on t ordered
// values, W1 is at most t−1.
func TestWasserstein1UpperBound(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 200; trial++ {
		tlen := 2 + rng.Intn(8)
		p, q := randDist(rng, tlen), randDist(rng, tlen)
		if w := Wasserstein1(p, q); w > float64(tlen-1)+1e-12 {
			t.Fatalf("W1 %v exceeds bound %d", w, tlen-1)
		}
	}
}
