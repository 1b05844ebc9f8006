// Package metrics implements every evaluation measure from Section 5.2
// of the FairKM paper, plus one standard fairness diagnostic from the
// related literature.
//
// Clustering quality (over non-sensitive attributes N):
//   - CO: the K-Means clustering objective, Eq. 24 (lower is better)
//   - SH: silhouette score (higher is better)
//   - DevC: centroid-based deviation from a reference S-blind
//     clustering (lower is better)
//   - DevO: object-pairwise deviation from a reference clustering
//     (lower is better)
//
// Fairness (over sensitive attributes S, all lower-is-better):
//   - AE/AW: cardinality-weighted average Euclidean / Wasserstein
//     distance between each cluster's value distribution and the
//     dataset distribution, Eq. 25
//   - ME/MW: the corresponding maxima across clusters
//
// Extra: Balance (Chierichetti et al.).
package metrics

//fairvet:floateq cluster sizes and probabilities compare exactly against 0 to detect empty clusters and zero-support values

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/hungarian"
	"repro/internal/stats"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// CO returns the K-Means clustering objective (Eq. 24): summed squared
// distance from each point to its cluster centroid.
func CO(features [][]float64, assign []int, k int) float64 {
	cents := centroids(features, assign, k)
	s := 0.0
	for i, x := range features {
		s += stats.SqDist(x, cents[assign[i]])
	}
	return s
}

func centroids(features [][]float64, assign []int, k int) [][]float64 {
	dim := len(features[0])
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	counts := make([]int, k)
	for i, x := range features {
		stats.AddTo(cents[assign[i]], x)
		counts[assign[i]]++
	}
	for c := range cents {
		if counts[c] > 0 {
			stats.Scale(cents[c], 1/float64(counts[c]))
		}
	}
	return cents
}

// Silhouette returns the exact mean silhouette coefficient (Rousseeuw
// 1987) over all points: s(i) = (b−a)/max(a,b) with a the mean distance
// to co-members and b the smallest mean distance to another cluster.
// Points in singleton clusters score 0. Cost is O(n²·d); for large
// datasets use SilhouetteSampled.
func Silhouette(features [][]float64, assign []int, k int) float64 {
	n := len(features)
	return silhouetteOver(features, assign, k, identity(n))
}

// SilhouetteSampled estimates the silhouette coefficient by averaging
// s(i) over sample points drawn without replacement (each point's a and
// b are still computed against the FULL dataset, so only the outer
// average is sampled). If sample >= n the computation is exact.
func SilhouetteSampled(features [][]float64, assign []int, k, sample int, seed int64) float64 {
	n := len(features)
	if sample >= n {
		return Silhouette(features, assign, k)
	}
	rng := stats.NewRNG(seed)
	return silhouetteOver(features, assign, k, rng.SampleWithoutReplacement(n, sample))
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func silhouetteOver(features [][]float64, assign []int, k int, idx []int) float64 {
	n := len(features)
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	if n == 0 || len(idx) == 0 {
		return 0
	}
	sumS, count := 0.0, 0
	distSums := make([]float64, k)
	for _, i := range idx {
		ci := assign[i]
		if sizes[ci] <= 1 {
			count++ // silhouette of a singleton is defined as 0
			continue
		}
		for c := range distSums {
			distSums[c] = 0
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			distSums[assign[j]] += stats.Dist(features[i], features[j])
		}
		a := distSums[ci] / float64(sizes[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			if m := distSums[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			count++ // only one non-empty cluster: define s(i)=0
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			sumS += (b - a) / den
		}
		count++
	}
	if count == 0 {
		return 0
	}
	return sumS / float64(count)
}

// DevC measures centroid-based deviation between a clustering and a
// reference clustering (Section 5.2.1): centroids of the two clusterings
// are optimally matched (minimum-cost perfect matching under squared
// Euclidean distance, solved exactly with the Hungarian algorithm) and
// the total matched cost is returned. Identical clusterings score 0,
// which is the property the paper's tables rely on (K-Means(N) scores
// 0.0 against itself).
//
// The paper describes DevC loosely as a sum of pairwise centroid
// dot-products (after disparate-clustering work); that form is not zero
// for identical clusterings, so we use the matching formulation, which
// preserves the measure's intent — see EXPERIMENTS.md.
func DevC(features [][]float64, assign []int, refAssign []int, k int) float64 {
	a := centroids(features, assign, k)
	b := centroids(features, refAssign, k)
	cost := make([][]float64, k)
	for i := range cost {
		cost[i] = make([]float64, k)
		for j := range cost[i] {
			cost[i][j] = stats.SqDist(a[i], b[j])
		}
	}
	_, total, err := hungarian.Solve(cost)
	if err != nil {
		panic(fmt.Sprintf("metrics: DevC matching failed: %v", err)) // k>=1 guaranteed by callers
	}
	return total
}

// DevO measures object-pairwise deviation between two clusterings
// (Section 5.2.1): the fraction of object pairs on which the two
// clusterings disagree about being co-clustered — i.e. one minus the
// Rand index. It is computed exactly in O(n + k·k') via the contingency
// table.
func DevO(assign, refAssign []int, k, refK int) float64 {
	n := len(assign)
	if len(refAssign) != n {
		panic(fmt.Sprintf("metrics: DevO assignment lengths differ: %d vs %d", n, len(refAssign)))
	}
	if n < 2 {
		return 0
	}
	cont := make([][]float64, k)
	for i := range cont {
		cont[i] = make([]float64, refK)
	}
	aSizes := make([]float64, k)
	bSizes := make([]float64, refK)
	for i := 0; i < n; i++ {
		cont[assign[i]][refAssign[i]]++
		aSizes[assign[i]]++
		bSizes[refAssign[i]]++
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	sumCont, sumA, sumB := 0.0, 0.0, 0.0
	for i := range cont {
		for j := range cont[i] {
			sumCont += choose2(cont[i][j])
		}
	}
	for _, s := range aSizes {
		sumA += choose2(s)
	}
	for _, s := range bSizes {
		sumB += choose2(s)
	}
	totalPairs := choose2(float64(n))
	// Pairs same in A but split in B, plus same in B but split in A.
	disagree := (sumA - sumCont) + (sumB - sumCont)
	return disagree / totalPairs
}

// FairnessReport aggregates the four fairness measures for one
// sensitive attribute.
type FairnessReport struct {
	Attribute string
	AE        float64
	AW        float64
	ME        float64
	MW        float64
}

// Get returns the named measure ("AE", "AW", "ME" or "MW"); it panics
// on an unknown name. It lets table renderers iterate measures.
func (r FairnessReport) Get(measure string) float64 {
	switch measure {
	case "AE":
		return r.AE
	case "AW":
		return r.AW
	case "ME":
		return r.ME
	case "MW":
		return r.MW
	default:
		panic(fmt.Sprintf("metrics: unknown fairness measure %q", measure))
	}
}

// clusterDistributions returns, for each non-empty cluster, its
// cardinality and value distribution over attribute s.
func clusterDistributions(s *dataset.SensitiveAttr, assign []int, k int) (sizes []int, dists [][]float64) {
	nvals := len(s.Values)
	counts := make([][]float64, k)
	for c := range counts {
		counts[c] = make([]float64, nvals)
	}
	sizes = make([]int, k)
	for i, c := range assign {
		counts[c][s.Codes[i]]++
		sizes[c]++
	}
	dists = make([][]float64, k)
	for c := 0; c < k; c++ {
		dists[c] = counts[c]
		if sizes[c] > 0 {
			stats.Scale(dists[c], 1/float64(sizes[c]))
		}
	}
	return sizes, dists
}

// Fairness computes AE, AW, ME and MW (Section 5.2.2) for a single
// categorical sensitive attribute: cluster-cardinality weighted average
// (Eq. 25) and maximum of the Euclidean / Wasserstein distances between
// each non-empty cluster's value distribution and the dataset's.
func Fairness(ds *dataset.Dataset, s *dataset.SensitiveAttr, assign []int, k int) FairnessReport {
	frX := ds.Fractions(s)
	sizes, dists := clusterDistributions(s, assign, k)
	szf := make([]float64, k)
	for c, sz := range sizes {
		szf[c] = float64(sz)
	}
	return FairnessFromDistributions(s.Name, frX, szf, dists)
}

// FairnessFromDistributions computes the AE/AW/ME/MW report from
// already-aggregated statistics: the dataset value distribution frX,
// per-cluster sizes (row counts or masses; zero marks an empty cluster)
// and per-cluster value distributions. It is the counts-based core of
// Fairness, shared with the streaming second-pass evaluator
// (internal/pipeline), which accumulates these aggregates in O(k·|V|)
// memory without materializing the dataset.
func FairnessFromDistributions(attr string, frX []float64, sizes []float64, dists [][]float64) FairnessReport {
	rep := FairnessReport{Attribute: attr}
	totalW := 0.0
	for c := range dists {
		if sizes[c] == 0 {
			continue
		}
		w := sizes[c]
		ed := Euclidean(dists[c], frX)
		wd := Wasserstein1(dists[c], frX)
		rep.AE += w * ed
		rep.AW += w * wd
		if ed > rep.ME {
			rep.ME = ed
		}
		if wd > rep.MW {
			rep.MW = wd
		}
		totalW += w
	}
	if totalW > 0 {
		rep.AE /= totalW
		rep.AW /= totalW
	}
	return rep
}

// FairnessAll evaluates Fairness for every categorical sensitive
// attribute of ds and appends a synthetic "mean" report averaging the
// four measures across attributes (the "Mean across S Attributes" rows
// of Tables 6 and 8).
func FairnessAll(ds *dataset.Dataset, assign []int, k int) []FairnessReport {
	var reps []FairnessReport
	for _, s := range ds.Sensitive {
		if s.Kind != dataset.Categorical {
			continue
		}
		reps = append(reps, Fairness(ds, s, assign, k))
	}
	if len(reps) == 0 {
		return reps
	}
	return append(reps, MeanReport(reps))
}

// MeanReport is the synthetic "mean" report: each of AE/AW/ME/MW
// summed across reps in order, then multiplied by 1/len(reps). Every
// cross-attribute mean in the repository is computed here, so all of
// them carry the same bits for the same reports.
func MeanReport(reps []FairnessReport) FairnessReport {
	mean := FairnessReport{Attribute: "mean"}
	for _, r := range reps {
		mean.AE += r.AE
		mean.AW += r.AW
		mean.ME += r.ME
		mean.MW += r.MW
	}
	inv := 1 / float64(len(reps))
	mean.AE *= inv
	mean.AW *= inv
	mean.ME *= inv
	mean.MW *= inv
	return mean
}

// NumericFairnessReport carries the numeric-attribute analogues of the
// categorical fairness measures (Section 5.2.2 notes these "follow
// naturally"): distribution distance is replaced by the absolute gap
// between a cluster's mean of the attribute and the dataset's mean.
type NumericFairnessReport struct {
	Attribute string
	// AvgGap is the cluster-cardinality weighted average |mean_C − mean_X|.
	AvgGap float64
	// MaxGap is the maximum gap across non-empty clusters.
	MaxGap float64
	// NormAvgGap and NormMaxGap divide the gaps by the attribute's
	// dataset standard deviation (0 std → 0), making values comparable
	// across attributes.
	NormAvgGap float64
	NormMaxGap float64
}

// NumericFairness computes mean-gap fairness for a numeric sensitive
// attribute. It panics if s is not numeric.
func NumericFairness(s *dataset.SensitiveAttr, assign []int, k int) NumericFairnessReport {
	if s.Kind != dataset.Numeric {
		panic(fmt.Sprintf("metrics: NumericFairness on categorical attribute %q", s.Name))
	}
	meanX, stdX := stats.MeanStd(s.Reals)
	sums := make([]float64, k)
	sizes := make([]int, k)
	for i, c := range assign {
		sums[c] += s.Reals[i]
		sizes[c]++
	}
	rep := NumericFairnessReport{Attribute: s.Name}
	total := 0.0
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		gap := math.Abs(sums[c]/float64(sizes[c]) - meanX)
		rep.AvgGap += float64(sizes[c]) * gap
		if gap > rep.MaxGap {
			rep.MaxGap = gap
		}
		total += float64(sizes[c])
	}
	if total > 0 {
		rep.AvgGap /= total
	}
	if stdX > 0 {
		rep.NormAvgGap = rep.AvgGap / stdX
		rep.NormMaxGap = rep.MaxGap / stdX
	}
	return rep
}

// Balance returns Chierichetti et al.'s balance of the clustering for a
// categorical attribute: min over non-empty clusters and value pairs of
// the ratio between value counts, in [0, 1] where 1 is perfectly
// balanced. Reported as a supplementary diagnostic.
func Balance(s *dataset.SensitiveAttr, assign []int, k int) float64 {
	sizes, dists := clusterDistributions(s, assign, k)
	bal := 1.0
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		for i := 0; i < len(dists[c]); i++ {
			for j := i + 1; j < len(dists[c]); j++ {
				a, b := dists[c][i], dists[c][j]
				if a == 0 || b == 0 {
					return 0
				}
				r := a / b
				if r > 1 {
					r = 1 / r
				}
				if r < bal {
					bal = r
				}
			}
		}
	}
	return bal
}
