package stats

import (
	"fmt"
	"testing"
)

// BenchmarkNearest sweeps k for the nearest-centroid kernels on dim-8
// (Adult-shaped) rows: the naive SqDist scan and the sorted-neighbor
// indexed walk (the serving kernel). The indexed-vs-naive gap is the
// direct measure of the pruning + fusion win and must grow with k (see
// EXPERIMENTS.md).
func BenchmarkNearest(b *testing.B) {
	const dim = 8
	rows := genRows(42, 512, dim)
	for _, k := range []int{5, 15, 50, 150} {
		centroids := genRows(7, k, dim)
		b.Run(fmt.Sprintf("kernel=naive/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(rows)))
			for i := 0; i < b.N; i++ {
				for _, x := range rows {
					c, _ := NearestCentroidScan(x, centroids)
					benchSink = float64(c)
				}
			}
		})
		b.Run(fmt.Sprintf("kernel=indexed/k=%d", k), func(b *testing.B) {
			ix := NewCentroidIndex(centroids)
			sc := ix.NewScratch()
			b.SetBytes(int64(len(rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range rows {
					c, _ := ix.Nearest(x, sc)
					benchSink = float64(c)
				}
			}
		})
	}
}
