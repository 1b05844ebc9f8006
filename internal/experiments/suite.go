package experiments

//fairvet:floateq best==0 guards an exact division by zero

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/zgya"
)

// QualityStats aggregates the Section 5.2.1 clustering-quality
// measures, averaged over restarts.
type QualityStats struct {
	CO   float64 // K-Means objective, lower better
	SH   float64 // silhouette, higher better
	DevC float64 // centroid deviation vs S-blind reference, lower better
	DevO float64 // object-pairwise deviation vs reference, lower better
}

func (q *QualityStats) add(o QualityStats) {
	q.CO += o.CO
	q.SH += o.SH
	q.DevC += o.DevC
	q.DevO += o.DevO
}

func (q *QualityStats) scale(f float64) {
	q.CO *= f
	q.SH *= f
	q.DevC *= f
	q.DevO *= f
}

// MeanAttr is the pseudo-attribute name under which fairness measures
// averaged across all sensitive attributes are reported (the "Mean
// across S Attributes" blocks of Tables 6 and 8).
const MeanAttr = "mean"

// Suite holds every measurement for one (dataset, k) configuration:
// quality for the three methods of Tables 5/7 and per-attribute
// fairness for the methods of Tables 6/8 and Figures 1–4.
type Suite struct {
	K         int
	Reps      int
	AttrNames []string // categorical sensitive attributes, dataset order

	// Quality (Tables 5 and 7).
	KMeans  QualityStats
	ZGYAAvg QualityStats
	FairKM  QualityStats

	// Fairness (Tables 6 and 8), keyed by attribute name plus MeanAttr.
	// ZGYAFair[S] comes from the ZGYA invocation dedicated to S (the
	// paper's "synthetic favorable setting"); FairKMFair[S] from the
	// single FairKM run over all attributes.
	KMeansFair map[string]metrics.FairnessReport
	ZGYAFair   map[string]metrics.FairnessReport
	FairKMFair map[string]metrics.FairnessReport

	// FairKMSingleFair[S] is FairKM instantiated with only attribute S
	// (Figures 1–4); populated only when RunSuite is asked for singles.
	FairKMSingleFair map[string]metrics.FairnessReport
}

// RunSuite executes the full method matrix on one dataset for one k:
// K-Means(N), FairKM over all S, one ZGYA(S) per sensitive attribute,
// and optionally one FairKM(S) per attribute, each restarted Reps times
// with seeds Seed, Seed+1, …, and all measures averaged.
func RunSuite(ds *dataset.Dataset, k int, lambda float64, opts Options, withSingles bool) (*Suite, error) {
	opts.normalize()
	var attrs []string
	for _, s := range ds.Sensitive {
		if s.Kind == dataset.Categorical {
			attrs = append(attrs, s.Name)
		}
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("experiments: dataset has no categorical sensitive attributes")
	}
	suite := &Suite{
		K: k, Reps: opts.Reps, AttrNames: attrs,
		KMeansFair: map[string]metrics.FairnessReport{},
		ZGYAFair:   map[string]metrics.FairnessReport{},
		FairKMFair: map[string]metrics.FairnessReport{},
	}
	if withSingles {
		suite.FairKMSingleFair = map[string]metrics.FairnessReport{}
	}

	// Restarts are independent; run them in parallel (bounded by CPU
	// count) and aggregate sequentially in rep order, so results are
	// bit-identical to a serial run.
	results := make([]*repResult, opts.Reps)
	errs := make([]error, opts.Reps)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for rep := 0; rep < opts.Reps; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[rep], errs[rep] = runRep(ds, k, lambda, attrs, opts, rep, withSingles)
		}(rep)
	}
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: rep %d: %w", rep, err)
		}
	}
	for _, r := range results {
		suite.KMeans.add(r.kmQ)
		suite.FairKM.add(r.fkmQ)
		suite.ZGYAAvg.add(r.zgQ)
		mergeFairness(suite.KMeansFair, r.kmFair)
		mergeFairness(suite.FairKMFair, r.fkmFair)
		mergeFairness(suite.ZGYAFair, r.zgFair)
		if withSingles {
			mergeFairness(suite.FairKMSingleFair, r.singleFair)
		}
	}

	inv := 1 / float64(opts.Reps)
	suite.KMeans.scale(inv)
	suite.ZGYAAvg.scale(inv)
	suite.FairKM.scale(inv)
	scaleFairness(suite.KMeansFair, inv)
	scaleFairness(suite.ZGYAFair, inv)
	scaleFairness(suite.FairKMFair, inv)
	if withSingles {
		scaleFairness(suite.FairKMSingleFair, inv)
		addMeanReport(suite.FairKMSingleFair, attrs)
	}
	addMeanReport(suite.ZGYAFair, attrs)
	return suite, nil
}

// repResult carries one restart's measurements before aggregation.
type repResult struct {
	kmQ, fkmQ, zgQ QualityStats
	kmFair         map[string]metrics.FairnessReport
	fkmFair        map[string]metrics.FairnessReport
	zgFair         map[string]metrics.FairnessReport
	singleFair     map[string]metrics.FairnessReport
}

// runRep executes the full method matrix for one restart.
func runRep(ds *dataset.Dataset, k int, lambda float64, attrs []string, opts Options, rep int, withSingles bool) (*repResult, error) {
	seed := opts.Seed + int64(rep)
	out := &repResult{
		kmFair:  map[string]metrics.FairnessReport{},
		fkmFair: map[string]metrics.FairnessReport{},
		zgFair:  map[string]metrics.FairnessReport{},
	}

	km, err := kmeans.Run(ds.Features, opts.KMeansConfig(k, seed))
	if err != nil {
		return nil, fmt.Errorf("K-Means: %w", err)
	}
	fkmCfg := opts.FairKMConfig(k, seed)
	fkmCfg.Lambda = lambda
	fkm, err := core.Run(ds, fkmCfg)
	if err != nil {
		return nil, fmt.Errorf("FairKM: %w", err)
	}
	out.kmQ = quality(ds, km.Assign, km.Assign, k, opts, seed)
	out.fkmQ = quality(ds, fkm.Assign, km.Assign, k, opts, seed)
	addFairness(out.kmFair, ds, km.Assign, k)
	addFairness(out.fkmFair, ds, fkm.Assign, k)

	for _, attr := range attrs {
		zgCfg := opts.ZGYAConfig(attr, k, seed)
		zgCfg.AutoLambda = true
		zg, err := zgya.Run(ds, attr, zgCfg)
		if err != nil {
			return nil, fmt.Errorf("ZGYA(%s): %w", attr, err)
		}
		out.zgQ.add(quality(ds, zg.Assign, km.Assign, k, opts, seed))
		addAttrFairness(out.zgFair, ds, attr, zg.Assign, k)
	}
	out.zgQ.scale(1 / float64(len(attrs)))

	if withSingles {
		// FairKM's fairness term sums per-attribute deviations, so a
		// single-attribute instantiation sees 1/|S| of the pressure the
		// all-attribute run applies to each attribute at equal λ.
		// Scaling λ by |S| equalizes the per-attribute pressure, which
		// is the comparison Figures 1–4 make.
		out.singleFair = map[string]metrics.FairnessReport{}
		singleLambda := lambda * float64(len(attrs))
		for _, attr := range attrs {
			sub, err := ds.WithSensitive(attr)
			if err != nil {
				return nil, err
			}
			fsCfg := opts.FairKMConfig(k, seed)
			fsCfg.Lambda = singleLambda
			fs, err := core.Run(sub, fsCfg)
			if err != nil {
				return nil, fmt.Errorf("FairKM(%s): %w", attr, err)
			}
			addAttrFairness(out.singleFair, ds, attr, fs.Assign, k)
		}
	}
	return out, nil
}

// mergeFairness accumulates src's reports into acc.
func mergeFairness(acc, src map[string]metrics.FairnessReport) {
	for key, rep := range src {
		accumulate(acc, key, rep)
	}
}

// quality computes the Section 5.2.1 measures for one assignment
// against the S-blind reference assignment.
func quality(ds *dataset.Dataset, assign, ref []int, k int, opts Options, seed int64) QualityStats {
	return QualityStats{
		CO:   metrics.CO(ds.Features, assign, k),
		SH:   metrics.SilhouetteSampled(ds.Features, assign, k, opts.SilhouetteSample, seed),
		DevC: metrics.DevC(ds.Features, assign, ref, k),
		DevO: metrics.DevO(assign, ref, k, k),
	}
}

// addFairness accumulates FairnessAll reports (per attribute + mean)
// into acc.
func addFairness(acc map[string]metrics.FairnessReport, ds *dataset.Dataset, assign []int, k int) {
	for _, rep := range metrics.FairnessAll(ds, assign, k) {
		accumulate(acc, rep.Attribute, rep)
	}
}

// addAttrFairness accumulates the fairness of one attribute only (used
// for per-attribute method instantiations).
func addAttrFairness(acc map[string]metrics.FairnessReport, ds *dataset.Dataset, attr string, assign []int, k int) {
	s := ds.SensitiveByName(attr)
	accumulate(acc, attr, metrics.Fairness(ds, s, assign, k))
}

func accumulate(acc map[string]metrics.FairnessReport, key string, rep metrics.FairnessReport) {
	cur := acc[key]
	cur.Attribute = key
	cur.AE += rep.AE
	cur.AW += rep.AW
	cur.ME += rep.ME
	cur.MW += rep.MW
	acc[key] = cur
}

func scaleFairness(acc map[string]metrics.FairnessReport, f float64) {
	for key, rep := range acc {
		rep.AE *= f
		rep.AW *= f
		rep.ME *= f
		rep.MW *= f
		acc[key] = rep
	}
}

// addMeanReport fills acc[MeanAttr] with the average across attrs (for
// accumulations built per-attribute, where FairnessAll's own mean row
// is absent).
func addMeanReport(acc map[string]metrics.FairnessReport, attrs []string) {
	reps := make([]metrics.FairnessReport, len(attrs))
	for i, attr := range attrs {
		reps[i] = acc[attr]
	}
	acc[MeanAttr] = metrics.MeanReport(reps)
}

// Improvement returns the paper's "FairKM Impr(%)" column: the
// percentage gain of fairKM over the better (smaller) of the two
// baselines. Positive means FairKM is ahead.
func Improvement(fairKM, kmeansV, zgyaV float64) float64 {
	best := kmeansV
	if zgyaV < best {
		best = zgyaV
	}
	if best == 0 {
		return 0
	}
	return (best - fairKM) / best * 100
}
