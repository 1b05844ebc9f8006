package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stats"
)

const (
	// fitK is the cluster count of every fit the benchmark runs.
	fitK = 15
	// minOps is the fewest operations a training workload measures,
	// however long each one takes.
	minOps = 3
)

// fitConfig is the paper's sequential Algorithm 1 at auto-λ.
func fitConfig(seed int64) fairclust.Config {
	return fairclust.Config{K: fitK, AutoLambda: true, Seed: seed}
}

// genAdult generates the synthetic Adult table at income parity and
// min-max scales its features, returning the scaling applied.
func genAdult(seed int64, rows int) (*dataset.Dataset, *model.Scaling, error) {
	ds, err := adult.Generate(adult.Config{Seed: seed, Rows: rows})
	if err != nil {
		return nil, nil, err
	}
	mins, ranges := ds.MinMaxNormalize()
	return ds, &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}, nil
}

// meanAE is the AE of Fairness' trailing "mean" report.
func meanAE(reps []fairclust.FairnessReport) float64 {
	for _, r := range reps {
		if r.Attribute == "mean" {
			return r.AE
		}
	}
	return 0
}

// checkObjective re-evaluates a fit's objective from scratch.
func checkObjective(ds *dataset.Dataset, res *fairclust.Result) error {
	ov, err := fairclust.Objective(ds, res.Assign, fitK, res.Lambda)
	if err != nil {
		return err
	}
	if !relClose(ov.Objective, res.Objective, 1e-9) {
		return fmt.Errorf("objective %v re-evaluates to %v", res.Objective, ov.Objective)
	}
	return nil
}

func runFit(o *opts, r *report) error {
	rows := o.scale(adult.FullSize)
	cal := newCalibration()
	var ds *dataset.Dataset
	var scaling *model.Scaling
	setup, err := timeSetup(cal, o.setupBudget(), func() (err error) {
		ds, scaling, err = genAdult(o.seed, rows)
		return err
	}, nil)
	if err != nil {
		return err
	}
	sum, err := hashDataset(ds)
	if err != nil {
		return err
	}
	r.note("input %s.dataset rows=%d sha256=%s", o.workload, ds.N(), sum)
	if o.trace {
		return fitTraced(o, r, ds, scaling)
	}

	// The peak RSS metric covers the fits alone: drop the set-up's
	// garbage and restart the kernel's high-water mark.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	// Every op fits with the same solve seed, so each times the same
	// work; the fit is deterministic, which each op checks.
	var secs, raw []float64
	var first *fairclust.Result
	var firstReps []fairclust.FairnessReport
	start := time.Now()
	var last time.Duration
	for i := 0; i < minOps || time.Since(start)+last <= o.seconds; i++ {
		t0 := time.Now()
		r.attempted++
		var res *fairclust.Result
		var reps []fairclust.FairnessReport
		wall, slow, err := cal.time(func() (err error) {
			if res, err = fairclust.Run(ds, fitConfig(o.seed)); err == nil {
				reps = fairclust.Fairness(ds, res.Assign, fitK)
			}
			return err
		})
		last = time.Since(t0)
		if err != nil {
			r.failed++
			r.note("fit op %d: %v", i, err)
			continue
		}
		if err := checkObjective(ds, res); err != nil {
			r.failed++
			r.mismatch("fit op %d: %v", i, err)
			continue
		}
		if first == nil {
			first, firstReps = res, reps
		} else if res.Objective != first.Objective {
			r.failed++
			r.mismatch("fit op %d: objective %v, op 0 had %v", i, res.Objective, first.Objective)
			continue
		}
		secs = append(secs, wall.Seconds()/slow)
		raw = append(raw, wall.Seconds())
	}
	if first == nil {
		return errors.New("no fit succeeded")
	}
	rss, err := procStatusMB(0, "VmHWM")
	if err != nil {
		return err
	}
	op := median(secs)
	r.note("fit ops=%d median=%.4fs, uncorrected %.4fs", len(secs), op, median(raw))
	r.set("setup_s", setup)
	r.set("latency_ms", op*1e3)
	r.set("rows_per_s", float64(ds.N())/op)
	r.set("peak_rss_mb", rss)
	r.set("sse", first.KMeansTerm)
	r.set("mean_ae", meanAE(firstReps))
	return nil
}

// fitStats are the engine, core and metrics measurements of one traced
// fit.
type fitStats struct {
	wall, run, fairness time.Duration
	sweeps              []time.Duration
	moves               int
	alloc               uint64
}

// tracedFit runs one fit plus its fairness report under parent,
// deriving one engine.sweep span per iteration from the engine's
// Observer: the engine reports the time since its solve started, so
// sweep i spans [start+elapsed(i-1), start+elapsed(i)]. Installing an
// Observer makes the engine compute the objective after every sweep;
// that cost lands in the sweep spans and in trace.overhead.
func tracedFit(ds *dataset.Dataset, cfg fairclust.Config, rec *Recorder, parent int64) (*fairclust.Result, []fairclust.FairnessReport, fitStats, error) {
	var st fitStats
	t0 := time.Now()
	run := rec.Begin("core.run", parent)
	var solveStart, prev time.Time
	cfg.Observer = func(ev engine.IterEvent) {
		now := time.Now()
		if ev.Iteration == 1 {
			solveStart = now.Add(-ev.Elapsed)
			prev = solveStart
		}
		end := solveStart.Add(ev.Elapsed)
		rec.Add("engine.sweep", run, prev, end)
		st.sweeps = append(st.sweeps, end.Sub(prev))
		st.moves += ev.Moves
		prev = end
	}
	a0 := allocBytes()
	res, err := fairclust.Run(ds, cfg)
	st.alloc = allocBytes() - a0
	rec.End(run)
	st.run = time.Since(t0)
	if err != nil {
		return nil, nil, st, err
	}
	f0 := time.Now()
	fid := rec.Begin("metrics.fairness", parent)
	reps := fairclust.Fairness(ds, res.Assign, fitK)
	rec.End(fid)
	st.fairness = time.Since(f0)
	st.wall = time.Since(t0)
	return res, reps, st, nil
}

// setEngineMetrics reports the engine/core/metrics layer from traced
// fits: medians over fits, and the median sweep over all their sweeps.
func setEngineMetrics(r *report, fits []fitStats) {
	var iters, moves, sweeps, setups, allocs, fair []float64
	for _, f := range fits {
		var swept time.Duration
		for _, s := range f.sweeps {
			sweeps = append(sweeps, ms(s))
			swept += s
		}
		iters = append(iters, float64(len(f.sweeps)))
		moves = append(moves, float64(f.moves))
		setups = append(setups, ms(f.run-swept))
		allocs = append(allocs, mb(f.alloc))
		fair = append(fair, ms(f.fairness))
	}
	r.set("engine.iterations", median(iters))
	r.set("engine.moves", median(moves))
	r.set("engine.sweep_ms", median(sweeps))
	r.set("core.setup_ms", median(setups))
	r.set("core.alloc_mb", median(allocs))
	if fits[0].fairness > 0 {
		r.set("metrics.fairness_ms", median(fair))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func mb(b uint64) float64        { return float64(b) / (1 << 20) }

// fitTraced alternates untraced and traced fits, all with the run's
// solve seed, for the run's duration.
func fitTraced(o *opts, r *report, ds *dataset.Dataset, scaling *model.Scaling) error {
	rec := NewRecorder()
	var plain, traced []float64
	var fits []fitStats
	var last *fairclust.Result
	start := time.Now()
	for i := 0; i < 2*minOps || time.Since(start) < o.seconds; i++ {
		cfg := fitConfig(o.seed)
		r.attempted++
		if i%2 == 0 {
			t0 := time.Now()
			res, err := fairclust.Run(ds, cfg)
			if err == nil {
				fairclust.Fairness(ds, res.Assign, fitK)
			}
			if err != nil {
				r.failed++
				continue
			}
			plain = append(plain, time.Since(t0).Seconds())
			continue
		}
		root := rec.Begin("op", 0)
		res, _, st, err := tracedFit(ds, cfg, rec, root)
		rec.End(root)
		if err != nil {
			r.failed++
			continue
		}
		if err := checkObjective(ds, res); err != nil {
			r.failed++
			r.mismatch("traced fit %d: %v", i, err)
			continue
		}
		traced = append(traced, st.wall.Seconds())
		fits = append(fits, st)
		last = res
	}
	if len(fits) == 0 || len(plain) == 0 {
		return fmt.Errorf("no traced or untraced fit succeeded")
	}
	spans := rec.Spans()
	setEngineMetrics(r, fits)
	r.set("trace.overhead", median(traced)/median(plain))
	r.set("trace.coverage", Coverage(spans))
	m, err := model.New(ds, nil, last, model.Provenance{Tool: "benchmark", Rows: ds.N()})
	if err != nil {
		return err
	}
	m.Scaling = scaling
	if err := codecMetrics(r, m); err != nil {
		return err
	}
	statsMetrics(r, ds.Features, last.Centroids, o.seconds/20)
	printLayers(r, spans)
	return rec.WriteJSON(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// codecMetrics times the artifact codec on m: the median of several
// encodes and decodes, and the encoded size.
func codecMetrics(r *report, m *model.Model) error {
	var enc, dec []float64
	var buf bytes.Buffer
	for i := 0; i < 15; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := m.Encode(&buf); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		t0 = time.Now()
		back, err := model.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(t0)))
		if back.K != m.K {
			r.mismatch("decoded artifact has k=%d, want %d", back.K, m.K)
		}
	}
	r.set("model.encode_ms", median(enc))
	r.set("model.decode_ms", median(dec))
	r.set("model.artifact_kb", float64(buf.Len())/1024)
	return nil
}

// statsMetrics times nearest-centroid search over rows, pruned
// (CentroidIndex) and naive (NearestCentroidScan), for about budget
// each, and checks that both pick the same centroid for every row.
func statsMetrics(r *report, rows, centroids [][]float64, budget time.Duration) {
	ix := stats.NewCentroidIndex(centroids)
	sc := ix.NewScratch()
	want := make([]int, len(rows))
	for i, x := range rows {
		want[i], _ = stats.NearestCentroidScan(x, centroids)
	}
	got := make([]int, len(rows))
	perRow := func(f func(x []float64) int) float64 {
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0) < budget {
			for i, x := range rows {
				got[i] = f(x)
			}
			n += len(rows)
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		for i := range rows {
			if got[i] != want[i] {
				r.mismatch("row %d: nearest centroid %d, scan says %d", i, got[i], want[i])
				break
			}
		}
		return ns
	}
	r.set("stats.index_ns_per_row", perRow(func(x []float64) int { c, _ := ix.Nearest(x, sc); return c }))
	r.set("stats.scan_ns_per_row", perRow(func(x []float64) int { c, _ := stats.NearestCentroidScan(x, centroids); return c }))
}

// printLayers notes each layer's share of the traced wall time, the
// table README.md records.
func printLayers(r *report, spans []Span) {
	var wall int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
	}
	self := LayerSelf(spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		name := layer
		if name == "" {
			name = "(benchmark)"
		}
		r.note("layer %-12s self=%.4fs share=%.4f", name, float64(self[layer])/1e9, float64(self[layer])/float64(wall))
	}
}
