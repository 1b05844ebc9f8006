package kmeans

import (
	"fmt"
	"testing"
)

// BenchmarkLloyd sweeps k for full Lloyd runs with Hamerly pruning on
// (the default) and off (Config.fullScan), on 4096 mildly-overlapping
// blob rows in the Adult-shaped dim-8 space. Identical seeds and
// MaxIter mean both variants execute the exact same iterations on the
// exact same assignments (pinned by TestPrunedParityGrid), so the
// ratio is pure scan-avoidance; it must grow with k (see
// EXPERIMENTS.md and the benchguard baseline).
func BenchmarkLloyd(b *testing.B) {
	features := blobFeatures(1, 4096, 12, 8)
	for _, k := range []int{5, 15, 50, 150} {
		for _, mode := range []struct {
			name string
			full bool
		}{{"pruned", false}, {"full", true}} {
			b.Run(fmt.Sprintf("kernel=%s/k=%d", mode.name, k), func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := Run(features, Config{K: k, Seed: 1, MaxIter: 25, fullScan: mode.full})
					if err != nil {
						b.Fatal(err)
					}
					iters = res.Iterations
				}
				b.ReportMetric(float64(iters), "lloyd-iters")
			})
		}
	}
}
