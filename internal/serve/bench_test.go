package serve

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// syntheticModel builds a minimal valid model whose k centroids are
// evenly-strided copies of the given rows — the shape a trained model
// has (centroids inside the data's hull) without running a training
// job: the k-sweep benchmarks only exercise the scoring kernels.
func syntheticModel(tb testing.TB, rows [][]float64, k int) *model.Model {
	tb.Helper()
	m := &model.Model{
		Format:   model.Format,
		Version:  model.Version,
		Name:     fmt.Sprintf("synth-k%d", k),
		K:        k,
		Clusters: make([]model.ClusterProfile, k),
	}
	m.Centroids = make([][]float64, k)
	stride := len(rows) / k
	for c := range m.Centroids {
		m.Centroids[c] = append([]float64(nil), rows[c*stride]...)
	}
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkServe measures batch-assign throughput through the
// micro-batching worker pool across batch sizes and worker counts, on
// an Adult-shaped model (k=15, min-max scaled features). `make bench`
// records the event stream to BENCH_serve.json; rows/op is fixed at
// 4096 so ns/op across variants compare directly (lower = faster).
func BenchmarkServe(b *testing.B) {
	ds := testfix.Adult(1, 4096)
	m := trainModel(b, ds, 15, 1)
	rows := ds.Features

	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{16, 64, 256, 1024} {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				a, err := NewAssigner(m, Options{Workers: workers, BatchSize: batch})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				b.SetBytes(int64(len(rows)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := a.AssignBatch(rows, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// k-sweep: the indexed serving kernel (what every Assigner scores
	// with) against the naive model.AssignDist scan on the same rows,
	// for centroid counts spanning small to wide deployments — both as
	// bare kernel loops, so the ratio is pure kernel (pool overhead is
	// the workers×batch grid above). It must grow with k; the naive
	// scan stays in the codebase exactly so this reference keeps
	// meaning. Models are built directly (not trained) so k=150 costs
	// no setup time.
	for _, k := range []int{5, 15, 50, 150} {
		km := syntheticModel(b, rows, k)
		b.Run(fmt.Sprintf("kernel=naive/k=%d", k), func(b *testing.B) {
			out := make([]int, len(rows))
			b.SetBytes(int64(len(rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, x := range rows {
					out[r], _ = km.AssignDist(x)
				}
			}
		})
		b.Run(fmt.Sprintf("kernel=indexed/k=%d", k), func(b *testing.B) {
			ix := stats.NewCentroidIndex(km.Centroids)
			sc := ix.NewScratch()
			out := make([]int, len(rows))
			b.SetBytes(int64(len(rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, x := range rows {
					out[r], _ = ix.Nearest(x, sc)
				}
			}
		})
	}

	// Labelled traffic: the same rows carrying their five sensitive
	// values, observed for drift through the map adapter
	// (AssignBatchCtx) and through the code path fairserved takes
	// (labels resolved from value bytes, then AssignLabelled), against
	// the same rows unlabelled.
	sens := make([]map[string]string, len(rows))
	vals := make([][][]byte, len(rows))
	for i := range rows {
		sens[i] = map[string]string{}
		for _, at := range ds.Sensitive {
			sens[i][at.Name] = at.Values[at.Codes[i]]
			vals[i] = append(vals[i], []byte(at.Values[at.Codes[i]]))
		}
	}
	for _, v := range []struct {
		name   string
		assign func(a *Assigner) error
	}{
		{"labelled=off", func(a *Assigner) error {
			_, _, err := a.AssignBatch(rows, nil)
			return err
		}},
		{"labelled=on/path=maps", func(a *Assigner) error {
			_, _, err := a.AssignBatch(rows, sens)
			return err
		}},
		{"labelled=on/path=codes", func(a *Assigner) error {
			l := a.NewLabels(len(rows))
			slots := make([]int, len(ds.Sensitive))
			for j, at := range ds.Sensitive {
				slots[j] = l.Slot([]byte(at.Name))
			}
			for i, row := range vals {
				for j, val := range row {
					l.Set(i, slots[j], val)
				}
			}
			_, _, err := a.AssignLabelled(context.Background(), rows, l)
			return err
		}},
	} {
		b.Run(v.name+"/workers=2/batch=64", func(b *testing.B) {
			a, err := NewAssigner(m, Options{Workers: 2, BatchSize: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			b.SetBytes(int64(len(rows)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.assign(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// A single query, as fairserved serves it: a one-row batch, the
	// per-request floor the batch variants amortize.
	b.Run("single", func(b *testing.B) {
		a, err := NewAssigner(m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := a.AssignBatch(rows[i%len(rows):i%len(rows)+1], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeTelemetry pins the cost of span tracing on the batch
// path: the same workers=2/batch=64 workload with and without a live
// RequestTracer (registry-backed stage histograms plus the flight
// recorder). The `BenchmarkServe` prefix gets the pair recorded into
// BENCH_serve.json by `make bench`, and bench-check's dedicated
// -rename comparison holds telemetry=on within the ±5% bar of
// telemetry=off (see Makefile).
func BenchmarkServeTelemetry(b *testing.B) {
	ds := testfix.Adult(1, 4096)
	m := trainModel(b, ds, 15, 1)
	rows := ds.Features

	variants := []struct {
		name string
		opts Options
	}{
		{"telemetry=off", Options{Workers: 2, BatchSize: 64}},
		{"telemetry=on", Options{Workers: 2, BatchSize: 64, Metrics: telemetry.NewRegistry()}},
	}
	for _, v := range variants {
		b.Run(v.name+"/workers=2/batch=64", func(b *testing.B) {
			a, err := NewAssigner(m, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			b.SetBytes(int64(len(rows)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.AssignBatch(rows, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
