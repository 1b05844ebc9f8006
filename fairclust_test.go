package fairclust_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"

	fairclust "repro"
)

// buildDataset constructs a dataset through the public API only.
func buildDataset(t *testing.T) *fairclust.Dataset {
	t.Helper()
	b := fairclust.NewBuilder("f1", "f2")
	b.AddCategoricalSensitive("g")
	rng := stats.NewRNG(1)
	for i := 0; i < 60; i++ {
		blob := float64(i % 2 * 6)
		g := "a"
		if (i/2)%3 == 0 {
			g = "b"
		}
		b.Row([]float64{rng.Gaussian(blob, 0.5), rng.Gaussian(0, 0.5)}, []string{g}, nil)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := buildDataset(t)
	ds.MinMaxNormalize()
	res, err := fairclust.Run(ds, fairclust.Config{K: 2, AutoLambda: true, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Assign) != ds.N() {
		t.Fatalf("assignment length %d, want %d", len(res.Assign), ds.N())
	}
	km, err := fairclust.KMeans(ds, fairclust.KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	fair := fairclust.Fairness(ds, res.Assign, 2)
	blind := fairclust.Fairness(ds, km.Assign, 2)
	if fair[len(fair)-1].AE > blind[len(blind)-1].AE {
		t.Errorf("FairKM AE %v worse than blind %v", fair[len(fair)-1].AE, blind[len(blind)-1].AE)
	}
	co := fairclust.ClusteringObjective(ds, res.Assign, 2)
	if co <= 0 {
		t.Errorf("CO = %v", co)
	}
	sh := fairclust.Silhouette(ds, res.Assign, 2, 1000, 1)
	if sh < -1 || sh > 1 {
		t.Errorf("SH = %v outside [-1,1]", sh)
	}
	obj, err := fairclust.Objective(ds, res.Assign, 2, res.Lambda)
	if err != nil {
		t.Fatalf("Objective: %v", err)
	}
	if math.Abs(obj.Objective-res.Objective) > 1e-6*(1+res.Objective) {
		t.Errorf("facade objective %v, Run objective %v", obj.Objective, res.Objective)
	}
}

// TestPublicWeightedAndStreaming drives the weighted solver and the
// summarize-then-solve pipeline through the public facade only.
func TestPublicWeightedAndStreaming(t *testing.T) {
	ds := buildDataset(t)

	// Weighted solve: unit weights must reproduce the plain solver.
	ones := make([]float64, ds.N())
	for i := range ones {
		ones[i] = 1
	}
	ref, err := fairclust.Run(ds, fairclust.Config{K: 3, AutoLambda: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := fairclust.RunWeighted(ds, ones, fairclust.Config{K: 3, AutoLambda: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Assign {
		if wres.Assign[i] != ref.Assign[i] {
			t.Fatalf("unit-weight assign[%d] differs", i)
		}
	}
	if math.Float64bits(wres.Objective) != math.Float64bits(ref.Objective) {
		t.Errorf("unit-weight objective %v vs %v", wres.Objective, ref.Objective)
	}
	if _, err := fairclust.WeightedObjective(ds, ones, ref.Assign, 3, ref.Lambda); err != nil {
		t.Fatal(err)
	}

	// Streaming: CSV out, chunked CSV back in, summarize, solve,
	// second-pass evaluate.
	var buf bytes.Buffer
	if err := fairclust.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	spec := fairclust.CSVSpec{Features: []string{"f1", "f2"}, CategoricalSensitive: []string{"g"}}
	src, err := fairclust.NewCSVStream(bytes.NewReader(buf.Bytes()), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := fairclust.FitStream(src, fairclust.StreamConfig{K: 3, AutoLambda: true, CoresetSize: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sres.N != ds.N() {
		t.Fatalf("streamed %d rows, want %d", sres.N, ds.N())
	}
	src2, err := fairclust.NewCSVStream(bytes.NewReader(buf.Bytes()), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := fairclust.EvaluateStream(src2, sres.Solve.Centroids, sres.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != ds.N() {
		t.Fatalf("evaluated %d rows, want %d", ev.N, ds.N())
	}
	if len(ev.Fairness) == 0 || ev.Fairness[len(ev.Fairness)-1].Attribute != "mean" {
		t.Fatalf("missing fairness reports: %+v", ev.Fairness)
	}
	// Two well-separated blobs: the streamed solve must still find a
	// sane clustering (objective in the same decade as the full solve).
	if ev.Value.Objective > 10*ref.Objective+1 {
		t.Errorf("streamed objective %v far above full solve %v", ev.Value.Objective, ref.Objective)
	}
}

// TestPublicSharded exercises the sharded streaming surface: SplitCSV
// over a real file, FitSharded across its shards deterministically for
// every worker count, and the S=1 ≡ FitStream contract — all through
// the public API only.
func TestPublicSharded(t *testing.T) {
	ds := buildDataset(t)
	var buf bytes.Buffer
	if err := fairclust.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := fairclust.CSVSpec{Features: []string{"f1", "f2"}, CategoricalSensitive: []string{"g"}}
	cfg := fairclust.StreamConfig{K: 3, AutoLambda: true, CoresetSize: 10, Seed: 4}

	split, err := fairclust.SplitCSV(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	fitSplit := func(workers int) *fairclust.StreamResult {
		t.Helper()
		srcs := make([]fairclust.StreamSource, split.Shards())
		for i := range srcs {
			stream, closer, err := split.Open(i, spec, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			srcs[i] = stream
		}
		res, err := fairclust.FitSharded(srcs, fairclust.ShardedStreamConfig{Config: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := fitSplit(1)
	if first.N != ds.N() || first.Shards != 2 {
		t.Fatalf("sharded run saw n=%d shards=%d, want n=%d shards=2", first.N, first.Shards, ds.N())
	}

	// S=2, deterministic across workers.
	second := fitSplit(2)
	if math.Float64bits(first.Solve.Objective) != math.Float64bits(second.Solve.Objective) {
		t.Errorf("worker count changed the S=2 objective: %v vs %v", first.Solve.Objective, second.Solve.Objective)
	}

	// One source, S=1: bit-identical to FitStream.
	ref, err := fairclust.FitStream(fairclust.NewSliceSource(ds, 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := fairclust.FitSharded([]fairclust.StreamSource{fairclust.NewSliceSource(ds, 16)}, fairclust.ShardedStreamConfig{Config: cfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(one.Solve.Objective) != math.Float64bits(ref.Solve.Objective) {
		t.Errorf("S=1 objective %v differs from FitStream %v", one.Solve.Objective, ref.Solve.Objective)
	}
	for i := range ref.Solve.Assign {
		if one.Solve.Assign[i] != ref.Solve.Assign[i] {
			t.Fatalf("S=1 assign[%d] differs", i)
		}
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	ds := buildDataset(t)
	var buf bytes.Buffer
	if err := fairclust.WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := fairclust.ReadCSV(strings.NewReader(buf.String()), fairclust.CSVSpec{
		Features:             []string{"f1", "f2"},
		CategoricalSensitive: []string{"g"},
	})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.N() != ds.N() {
		t.Errorf("round-trip N = %d, want %d", got.N(), ds.N())
	}
}

func TestDefaultLambda(t *testing.T) {
	if got := fairclust.DefaultLambda(100, 10); got != 100 {
		t.Errorf("DefaultLambda(100,10) = %v, want 100", got)
	}
}

func TestBaselineFacades(t *testing.T) {
	ds := buildDataset(t)
	ds.MinMaxNormalize()

	zg, err := fairclust.ZGYA(ds, "g", fairclust.ZGYAConfig{K: 2, AutoLambda: true, Seed: 1})
	if err != nil {
		t.Fatalf("ZGYA: %v", err)
	}
	if len(zg.Assign) != ds.N() {
		t.Error("ZGYA assignment length")
	}

	fl, err := fairclust.Fairlets(ds, "g", fairclust.FairletConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Fairlets: %v", err)
	}
	if len(fl.Fairlets) == 0 {
		t.Error("no fairlets")
	}

	br, err := fairclust.BeraAssign(ds, fairclust.BeraConfig{K: 2, Delta: 0.4, Seed: 1})
	if err != nil {
		t.Fatalf("BeraAssign: %v", err)
	}
	if br.MaxViolation < 0 {
		t.Error("negative violation")
	}

	sp, err := fairclust.Spectral(ds, fairclust.SpectralConfig{K: 2, Fair: true, Seed: 1})
	if err != nil {
		t.Fatalf("Spectral: %v", err)
	}
	if len(sp.Embedding) != ds.N() {
		t.Error("embedding rows")
	}

	kc, err := fairclust.KCenter(ds, fairclust.KCenterConfig{K: 4, Attr: "g", Seed: 1})
	if err != nil {
		t.Fatalf("KCenter: %v", err)
	}
	if len(kc.Centers) != 4 {
		t.Error("center count")
	}

	gc, err := fairclust.GreedyCapture(ds, 2)
	if err != nil {
		t.Fatalf("GreedyCapture: %v", err)
	}
	if v := fairclust.AuditProportionality(ds, gc.Assign, gc.Centers, 2, 3); v != nil {
		t.Errorf("greedy capture flagged at rho=3: %+v", v)
	}
}

func TestFairProjectionFacade(t *testing.T) {
	ds := buildDataset(t)
	proj, err := fairclust.FairProjection(ds)
	if err != nil {
		t.Fatalf("FairProjection: %v", err)
	}
	if proj.Dim() != ds.Dim() || proj.N() != ds.N() {
		t.Errorf("projection changed shape")
	}
	red, err := fairclust.FairPCA(ds, 1)
	if err != nil {
		t.Fatalf("FairPCA: %v", err)
	}
	if red.Dim() != 1 {
		t.Errorf("FairPCA dim = %d", red.Dim())
	}
}

// TestPublicModelServing drives the full deployment lifecycle through
// the public API: train → NewModel → SaveModel → LoadModel →
// NewAssigner → batch assign, plus EvaluateStreamModel against the
// equivalent EvaluateStream call.
func TestPublicModelServing(t *testing.T) {
	ds := buildDataset(t)
	res, err := fairclust.Run(ds, fairclust.Config{K: 2, AutoLambda: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := fairclust.NewModel(ds, nil, res, fairclust.ModelProvenance{Tool: "test", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "public.model.json")
	if err := fairclust.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := fairclust.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	a, err := fairclust.NewAssigner(loaded, fairclust.AssignerOptions{Workers: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got, _, err := a.AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ds.Features {
		if want := res.Predict(x); got[i] != want {
			t.Fatalf("row %d: served cluster %d, Predict says %d", i, got[i], want)
		}
	}

	// EvaluateStreamModel ≡ EvaluateStream(centroids, λ) when the model
	// carries no scaling.
	ev1, err := fairclust.EvaluateStreamModel(fairclust.NewSliceSource(ds, 16), loaded)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := fairclust.EvaluateStream(fairclust.NewSliceSource(ds, 16), res.Centroids, res.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev1.Value.Objective-ev2.Value.Objective) > 1e-12 {
		t.Errorf("EvaluateStreamModel objective %v != EvaluateStream %v", ev1.Value.Objective, ev2.Value.Objective)
	}

	// With scaling attached, EvaluateStreamModel must scale raw chunks
	// itself: evaluating the RAW dataset against a model trained on
	// normalized features reproduces the normalized-space evaluation.
	raw := buildDataset(t)
	norm := buildDataset(t)
	mins, ranges := norm.MinMaxNormalize()
	resN, err := fairclust.Run(norm, fairclust.Config{K: 2, AutoLambda: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mN, err := fairclust.NewModel(norm, nil, resN, fairclust.ModelProvenance{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	mN.Scaling = &fairclust.ModelScaling{Kind: "minmax", Mins: mins, Ranges: ranges}
	evRaw, err := fairclust.EvaluateStreamModel(fairclust.NewSliceSource(raw, 16), mN)
	if err != nil {
		t.Fatal(err)
	}
	evNorm, err := fairclust.EvaluateStream(fairclust.NewSliceSource(norm, 16), resN.Centroids, resN.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evRaw.Value.Objective-evNorm.Value.Objective) > 1e-9 {
		t.Errorf("scaled evaluation objective %v != normalized-space %v", evRaw.Value.Objective, evNorm.Value.Objective)
	}

	// Evaluation must not mutate the caller's data: SliceSource chunks
	// alias the Dataset's rows, so a second pass over the same raw
	// dataset has to reproduce the first (a regression here means the
	// scaling was applied in place, double-scaling on reuse).
	evRaw2, err := fairclust.EvaluateStreamModel(fairclust.NewSliceSource(raw, 16), mN)
	if err != nil {
		t.Fatal(err)
	}
	if evRaw2.Value.Objective != evRaw.Value.Objective {
		t.Errorf("second evaluation of the same dataset changed: %v -> %v (caller data mutated)", evRaw.Value.Objective, evRaw2.Value.Objective)
	}
}
