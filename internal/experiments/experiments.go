// Package experiments reproduces every table and figure of the FairKM
// paper's evaluation (Section 5) on the synthetic stand-in datasets.
//
// Each experiment function returns a typed result with a Render method
// that prints the same rows/series the paper reports. The cmd/experiments
// binary exposes them behind flags; bench_test.go at the repository root
// wraps each one in a testing.B benchmark.
//
// Experiment map (see DESIGN.md for the full index):
//
//	Table5 / Table6  — Adult clustering quality / fairness, k ∈ {5, 15}
//	Table7 / Table8  — Kinematics clustering quality / fairness, k = 5
//	Fig1 / Fig2      — Adult AW / MW: ZGYA(S) vs FairKM(All) vs FairKM(S)
//	Fig3 / Fig4      — Kinematics AW / MW, same comparison
//	Fig5 / Fig6 / Fig7 — Kinematics λ sweep: (CO, SH), (DevC, DevO),
//	                     fairness metrics
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/data/kinematics"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kmeans"
	"repro/internal/telemetry"
	"repro/internal/zgya"
)

const (
	// adultLambda is FairKM's λ for Adult, the paper's 10⁶ (Section 5.4).
	adultLambda = 1e6
	// kinLambda is FairKM's λ for Kinematics: 4·10³, the operating
	// point equivalent to the paper's 10³ on our (smaller-scale)
	// synthetic embeddings; see EXPERIMENTS.md.
	kinLambda = 4e3
	// maxIter bounds every solver's iterations, the paper's 30.
	maxIter = 30
)

// Options control experiment scale. The zero value is NOT runnable; use
// DefaultOptions as a base.
type Options struct {
	// Reps is the number of random restarts averaged per configuration.
	// The paper uses 100; the default here is 10 to keep a full
	// reproduction run in minutes. Raise it for tighter estimates.
	Reps int
	// Seed is the base seed; restart r of any algorithm uses Seed + r.
	Seed int64
	// AdultRows optionally reduces the Adult generation size (before
	// parity undersampling) for quick runs; zero means the paper's
	// 32561.
	AdultRows int
	// SilhouetteSample bounds the number of points whose silhouette
	// coefficients are averaged (each against the full dataset); zero
	// means 2000. The 161-point Kinematics dataset is always exact.
	SilhouetteSample int
	// Parallelism is passed through to every solver's
	// Config.Parallelism: 0 reproduces the paper's sequential sweeps,
	// core.ParallelismAuto (-1) uses GOMAXPROCS workers. Since the
	// descent-engine refactor FairKM, K-Means and ZGYA all honour it
	// with identical frozen-sweep semantics.
	Parallelism int
	// Budget, when positive, bounds the wall-clock of every individual
	// solver run (the engine's budget policy); runs cut short report
	// Converged == false but remain valid clusterings.
	Budget time.Duration
	// Trace, when non-nil, receives one line per solver iteration
	// (labelled with method, k and seed). With parallel restarts the
	// lines interleave; each line is written atomically.
	Trace io.Writer
	// Journal, when non-nil, receives machine-readable per-iteration
	// records for every solver run, tagged with the same method/k/seed
	// labels as Trace. The RunLog serializes concurrent restarts;
	// cmd/experiments exposes it as -telemetry.
	Journal *telemetry.RunLog
}

// DefaultOptions returns the scale used by cmd/experiments by default.
func DefaultOptions() Options {
	return Options{
		Reps:             10,
		Seed:             1,
		SilhouetteSample: 2000,
	}
}

func (o *Options) normalize() {
	if o.Reps <= 0 {
		o.Reps = 10
	}
	if o.SilhouetteSample <= 0 {
		o.SilhouetteSample = 2000
	}
}

// observer returns an engine.Observer writing per-iteration trace
// lines and/or telemetry journal records tagged with label (whole
// lines, serialized across the parallel restart goroutines), or nil
// when both sinks are off.
func (o Options) observer(label string) engine.Observer {
	var trace, journal engine.Observer
	if o.Trace != nil {
		trace = engine.TraceObserver(o.Trace, label)
	}
	if o.Journal != nil {
		journal = o.Journal.Observer(label)
	}
	return engine.Observers(trace, journal)
}

// FairKMConfig returns a core.Config carrying the orchestration
// options (maxIter, Parallelism, Budget, trace observer) every
// experiment threads into FairKM runs.
func (o Options) FairKMConfig(k int, seed int64) core.Config {
	return core.Config{
		K: k, Seed: seed, MaxIter: maxIter,
		Parallelism: o.Parallelism, Budget: o.Budget,
		Observer: o.observer(fmt.Sprintf("FairKM[k=%d seed=%d]", k, seed)),
	}
}

// KMeansConfig is FairKMConfig's counterpart for the S-blind baseline.
func (o Options) KMeansConfig(k int, seed int64) kmeans.Config {
	return kmeans.Config{
		K: k, Seed: seed, MaxIter: maxIter,
		Parallelism: o.Parallelism, Budget: o.Budget,
		Observer: o.observer(fmt.Sprintf("K-Means[k=%d seed=%d]", k, seed)),
	}
}

// ZGYAConfig is FairKMConfig's counterpart for the ZGYA baseline runs
// dedicated to one sensitive attribute.
func (o Options) ZGYAConfig(attr string, k int, seed int64) zgya.Config {
	return zgya.Config{
		K: k, Seed: seed, MaxIter: maxIter,
		Parallelism: o.Parallelism, Budget: o.Budget,
		Observer: o.observer(fmt.Sprintf("ZGYA(%s)[k=%d seed=%d]", attr, k, seed)),
	}
}

// Dataset caches: generation (especially Doc2Vec training) is costly
// and deterministic per (seed, rows), so share within a process.
var (
	cacheMu    sync.Mutex
	adultCache = map[string]*dataset.Dataset{}
	kinCache   = map[string]*dataset.Dataset{}
)

// LoadAdult generates (or returns the cached) synthetic Adult dataset
// with min-max normalized features.
func LoadAdult(opts Options) (*dataset.Dataset, error) {
	opts.normalize()
	key := fmt.Sprintf("%d/%d", opts.Seed, opts.AdultRows)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := adultCache[key]; ok {
		return ds, nil
	}
	ds, err := adult.Generate(adult.Config{Seed: opts.Seed, Rows: opts.AdultRows})
	if err != nil {
		return nil, err
	}
	ds.MinMaxNormalize()
	adultCache[key] = ds
	return ds, nil
}

// LoadKinematics generates (or returns the cached) kinematics dataset
// with the paper's 100-dimensional embeddings.
func LoadKinematics(opts Options) (*dataset.Dataset, error) {
	opts.normalize()
	key := fmt.Sprintf("%d", opts.Seed)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := kinCache[key]; ok {
		return ds, nil
	}
	ds, err := kinematics.Generate(kinematics.Config{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	kinCache[key] = ds
	return ds, nil
}
