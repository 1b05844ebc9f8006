package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// streamRows is the generated row count before income-parity
// undersampling; 480,988 rows (85 MB of CSV) remain.
const streamRows = 1_000_000

// streamSensitive are the attributes the stream workload stratifies on.
var streamSensitive = []string{"race", "gender", "relationship"}

// fairstream's flag defaults that the traced replica must mirror.
const (
	fairstreamM       = 64
	fairstreamSeed    = 1
	fairstreamMaxIter = 30
)

func fairstreamArgs(csvPath, artifact string) []string {
	return []string{
		"-in", csvPath,
		"-features", strings.Join(adult.FeatureNames, ","),
		"-sensitive", strings.Join(streamSensitive, ","),
		"-k", strconv.Itoa(fitK), "-auto-lambda", "-minmax", "-save", artifact,
	}
}

// writeAdultCSV writes the synthetic Adult table as CSV and returns its
// row count.
func writeAdultCSV(path string, seed int64, rows int) (int, error) {
	ds, err := adult.Generate(adult.Config{Seed: seed, Rows: rows})
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := dataset.WriteCSV(w, ds); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return ds.N(), f.Close()
}

// fairstreamRun is one completed fairstream process.
type fairstreamRun struct {
	out    string
	wall   time.Duration
	rssMB  float64
	n      int
	objStr string // full-data objective as printed
}

var evalRe = regexp.MustCompile(`full data \(nearest-centroid deployment, n=(\d+)\):\n  objective=(\S+)`)

func runFairstream(bin, csvPath, artifact string) (*fairstreamRun, error) {
	cmd := exec.Command(filepath.Join(bin, "fairstream"), fairstreamArgs(csvPath, artifact)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fairstream: %w", err)
	}
	// The child's rusage maxrss would include this process's own peak
	// (Linux charges the pre-exec image to the child), so sample the
	// child's VmHWM while it runs; the last sample before exit is its
	// peak to within one poll interval.
	var peak float64
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := procStatusMB(cmd.Process.Pid, "VmHWM"); err == nil {
				peak = max(peak, v)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0)
	close(stop)
	<-polled
	if err != nil {
		return nil, fmt.Errorf("fairstream: %w", err)
	}
	fr := &fairstreamRun{out: out.String(), wall: wall, rssMB: peak}
	m := evalRe.FindStringSubmatch(fr.out)
	if m == nil {
		return nil, errors.New("fairstream printed no full-data evaluation")
	}
	fr.n, _ = strconv.Atoi(m[1])
	fr.objStr = m[2]
	return fr, nil
}

func runStream(o *opts, r *report) error {
	csvPath := filepath.Join(o.work, "adult.csv")
	artifact := filepath.Join(o.work, "model.json")
	cal := newCalibration()
	var rows int
	setup, err := timeSetup(cal, o.setupBudget(), func() (err error) {
		rows, err = writeAdultCSV(csvPath, o.seed, o.scale(streamRows))
		return err
	}, nil)
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	sum, err := hashFile(csvPath)
	if err != nil {
		return err
	}
	r.note("input %s.csv rows=%d sha256=%s", o.workload, rows, sum)
	if o.trace {
		return streamTraced(o, r, csvPath, rows)
	}

	var secs, raw, rss []float64
	var first *fairstreamRun
	start := time.Now()
	var last time.Duration
	for i := 0; i < minOps || time.Since(start)+last <= o.seconds; i++ {
		t0 := time.Now()
		r.attempted++
		var fr *fairstreamRun
		_, slow, err := cal.time(func() (err error) {
			fr, err = runFairstream(o.bin, csvPath, artifact)
			return err
		})
		last = time.Since(t0)
		if err != nil {
			r.failed++
			r.note("stream op %d: %v", i, err)
			continue
		}
		switch {
		case fr.n != rows:
			r.failed++
			r.mismatch("stream op %d evaluated %d rows, want %d", i, fr.n, rows)
			continue
		case first != nil && fr.out != first.out:
			r.failed++
			r.mismatch("stream op %d printed a different report than op 0", i)
			continue
		}
		if first == nil {
			first = fr
		}
		secs = append(secs, fr.wall.Seconds()/slow)
		raw = append(raw, fr.wall.Seconds())
		rss = append(rss, fr.rssMB)
	}
	if first == nil {
		return errors.New("no stream op succeeded")
	}
	// The quality metrics re-evaluate the saved artifact over the CSV
	// at full precision, which also checks that it loads, validates and
	// reproduces the report fairstream printed.
	ev, err := evaluateArtifact(csvPath, artifact)
	if err != nil {
		return err
	}
	if ev.N != rows || strconv.FormatFloat(ev.Value.Objective, 'f', 4, 64) != first.objStr {
		r.mismatch("artifact evaluates to n=%d objective=%.4f; fairstream printed n=%d objective=%s", ev.N, ev.Value.Objective, first.n, first.objStr)
	}
	op := median(secs)
	r.note("stream ops=%d median=%.4fs, uncorrected %.4fs", len(secs), op, median(raw))
	r.set("setup_s", setup)
	r.set("latency_ms", op*1e3)
	r.set("rows_per_s", float64(rows)/op)
	r.set("peak_rss_mb", median(rss))
	r.set("sse", ev.Value.KMeansTerm)
	r.set("mean_ae", meanAE(ev.Fairness))
	return nil
}

func evaluateArtifact(csvPath, artifact string) (*fairclust.StreamEvaluation, error) {
	m, err := model.Load(artifact)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := dataset.NewCSVStream(f, streamSpec(), 0)
	if err != nil {
		return nil, err
	}
	return fairclust.EvaluateStreamModel(src, m)
}

func streamSpec() dataset.CSVSpec {
	return dataset.CSVSpec{Features: adult.FeatureNames, CategoricalSensitive: streamSensitive}
}

// tracedSource wraps a CSVStream for the traced replica: each Next is
// a dataset.next span, and the min-max scaling fairstream applies to
// every chunk is a cli.scale span.
type tracedSource struct {
	src    *dataset.CSVStream
	scale  *model.Scaling
	rec    *Recorder
	parent int64

	rows  int
	next  time.Duration // inside CSVStream.Next
	spent time.Duration // inside Next and scaling
	alloc uint64        // allocated inside CSVStream.Next
}

func (s *tracedSource) Next() (*dataset.Dataset, error) {
	t0 := time.Now()
	a0 := allocBytes()
	id := s.rec.Begin("dataset.next", s.parent)
	chunk, err := s.src.Next()
	s.rec.End(id)
	s.alloc += allocBytes() - a0
	s.next += time.Since(t0)
	if err == nil {
		s.rows += chunk.N()
		if s.scale != nil {
			id := s.rec.Begin("cli.scale", s.parent)
			for _, row := range chunk.Features {
				s.scale.Apply(row)
			}
			s.rec.End(id)
		}
	}
	s.spent += time.Since(t0)
	return chunk, err
}

// replicaStats are one traced replica op's layer measurements.
type replicaStats struct {
	wall                time.Duration
	sources             []*tracedSource // one per pass; the last is Evaluate's
	add, eval           time.Duration
	addAlloc, evalAlloc uint64
	fit                 fitStats
	res                 *pipeline.Result
	model               *model.Model
	ev                  *pipeline.Evaluation
}

// streamReplica does what fairstream does, in-process and traced: the
// same public functions in the same order (NewCSVStream, the min-max
// pass, Summarizer.Add/Solve, model.New/Save, pipeline.Evaluate).
func streamReplica(csvPath, artifact string, rec *Recorder) (*replicaStats, error) {
	st := &replicaStats{}
	open := func(parent int64, scale *model.Scaling) (*tracedSource, *os.File, error) {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, nil, err
		}
		src, err := dataset.NewCSVStream(f, streamSpec(), 0)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		ts := &tracedSource{src: src, scale: scale, rec: rec, parent: parent}
		st.sources = append(st.sources, ts)
		return ts, f, nil
	}
	t0 := time.Now()
	root := rec.Begin("op", 0)
	defer rec.End(root)

	p0 := rec.Begin("cli.minmax", root)
	src, f, err := open(p0, nil)
	if err != nil {
		return nil, err
	}
	mins, ranges, err := scanMinMax(src)
	f.Close()
	rec.End(p0)
	if err != nil {
		return nil, err
	}
	scaling := &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}

	p1 := rec.Begin("pipeline.fit", root)
	var solveID int64
	var solveStart, prev time.Time
	sum, err := pipeline.NewSummarizer(pipeline.Config{
		K: fitK, AutoLambda: true, CoresetSize: fairstreamM, Seed: fairstreamSeed, MaxIter: fairstreamMaxIter,
		Observer: func(ev engine.IterEvent) {
			if ev.Iteration == 1 {
				solveStart = time.Now().Add(-ev.Elapsed)
				prev = solveStart
			}
			end := solveStart.Add(ev.Elapsed)
			rec.Add("engine.sweep", solveID, prev, end)
			st.fit.sweeps = append(st.fit.sweeps, end.Sub(prev))
			st.fit.moves += ev.Moves
			prev = end
		},
	})
	if err != nil {
		return nil, err
	}
	src, f, err = open(p1, scaling)
	if err != nil {
		return nil, err
	}
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		a0, a := allocBytes(), time.Now()
		id := rec.Begin("pipeline.add", p1)
		err = sum.Add(chunk)
		rec.End(id)
		st.add += time.Since(a)
		st.addAlloc += allocBytes() - a0
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	f.Close()
	s0, a0 := time.Now(), allocBytes()
	solveID = rec.Begin("pipeline.solve", p1)
	res, err := sum.Solve()
	rec.End(solveID)
	st.fit.run, st.fit.alloc = time.Since(s0), allocBytes()-a0
	rec.End(p1)
	if err != nil {
		return nil, err
	}
	st.res = res

	sv := rec.Begin("model.save", root)
	st.model, err = model.New(res.Summary, res.SummaryWeights, res.Solve, model.Provenance{Tool: "fairstream", Seed: fairstreamSeed, Rows: res.N})
	if err == nil {
		st.model.Scaling = scaling
		err = model.Save(artifact, st.model)
	}
	rec.End(sv)
	if err != nil {
		return nil, err
	}

	pe := rec.Begin("pipeline.evaluate", root)
	src, f, err = open(pe, scaling)
	if err != nil {
		return nil, err
	}
	e0, a0 := time.Now(), allocBytes()
	st.ev, err = pipeline.Evaluate(src, res.Solve.Centroids, res.Lambda)
	st.eval, st.evalAlloc = time.Since(e0), allocBytes()-a0
	f.Close()
	rec.End(pe)
	if err != nil {
		return nil, err
	}
	st.wall = time.Since(t0)
	return st, nil
}

// scanMinMax is fairstream's min-max pass.
func scanMinMax(src pipeline.Source) (mins, ranges []float64, err error) {
	var maxs []float64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if mins == nil {
			mins = append([]float64(nil), chunk.Features[0]...)
			maxs = append([]float64(nil), chunk.Features[0]...)
		}
		for _, row := range chunk.Features {
			for j, v := range row {
				mins[j] = min(mins[j], v)
				maxs[j] = max(maxs[j], v)
			}
		}
	}
	if mins == nil {
		return nil, nil, errors.New("empty input")
	}
	ranges = make([]float64, len(mins))
	for j := range ranges {
		ranges[j] = maxs[j] - mins[j]
	}
	return mins, ranges, nil
}

// streamTraced alternates untraced fairstream processes and traced
// in-process replicas for the run's duration. The replica must print
// the same full-data objective as the process it stands in for.
func streamTraced(o *opts, r *report, csvPath string, rows int) error {
	rec := NewRecorder()
	var plain, traced, next, perRow, nextAlloc, add, solve, evalSelf, pipeAlloc []float64
	var fits []fitStats
	var last *replicaStats
	want := ""
	start := time.Now()
	var lastOp time.Duration
	for i := 0; i < 2 || time.Since(start)+lastOp <= o.seconds; i++ {
		r.attempted++
		if i%2 == 0 {
			fr, err := runFairstream(o.bin, csvPath, filepath.Join(o.work, "model.json"))
			if err != nil {
				r.failed++
				r.note("stream op %d: %v", i, err)
				continue
			}
			lastOp = fr.wall
			plain = append(plain, fr.wall.Seconds())
			want = fr.objStr
			continue
		}
		st, err := streamReplica(csvPath, filepath.Join(o.work, "replica.json"), rec)
		if err != nil {
			r.failed++
			r.note("traced stream op %d: %v", i, err)
			continue
		}
		lastOp = st.wall
		if got := strconv.FormatFloat(st.ev.Value.Objective, 'f', 4, 64); st.ev.N != rows || got != want {
			r.failed++
			r.mismatch("replica evaluated n=%d objective=%s; fairstream printed n=%d objective=%s", st.ev.N, got, rows, want)
			continue
		}
		var nextDur time.Duration
		var nAlloc uint64
		var n int
		for _, s := range st.sources {
			nextDur += s.next
			nAlloc += s.alloc
			n += s.rows
		}
		evalSrc := st.sources[len(st.sources)-1]
		traced = append(traced, st.wall.Seconds())
		next = append(next, nextDur.Seconds())
		perRow = append(perRow, float64(n)/nextDur.Seconds())
		nextAlloc = append(nextAlloc, mb(nAlloc))
		add = append(add, st.add.Seconds())
		solve = append(solve, st.fit.run.Seconds())
		evalSelf = append(evalSelf, (st.eval - evalSrc.spent).Seconds())
		pipeAlloc = append(pipeAlloc, mb(st.addAlloc+st.fit.alloc+st.evalAlloc-evalSrc.alloc))
		fits = append(fits, st.fit)
		last = st
	}
	if last == nil || len(plain) == 0 {
		return errors.New("no traced or untraced stream op succeeded")
	}
	spans := rec.Spans()
	r.set("dataset.next_s", median(next))
	r.set("dataset.rows_per_s", median(perRow))
	r.set("dataset.alloc_mb", median(nextAlloc))
	r.set("pipeline.summarize_s", median(add))
	r.set("pipeline.solve_s", median(solve))
	r.set("pipeline.evaluate_s", median(evalSelf))
	r.set("pipeline.alloc_mb", median(pipeAlloc))
	r.set("pipeline.summary_rows", float64(last.res.Summary.N()))
	setEngineMetrics(r, fits)
	r.set("trace.overhead", median(traced)/median(plain))
	r.set("trace.coverage", Coverage(spans))
	if err := codecMetrics(r, last.model); err != nil {
		return err
	}
	statsMetrics(r, last.res.Summary.Features, last.res.Solve.Centroids, o.seconds/20)
	printLayers(r, spans)
	return rec.WriteJSON(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}
