// Command fairstream clusters a CSV dataset of any size on fixed
// memory with the summarize-then-solve pipeline: the file is streamed
// in chunks through a fair merge-and-reduce coreset (one stratum per
// combination of the sensitive columns, O(m·log n) retained rows per
// stratum), weighted FairKM solves on the summary, and a second
// streaming pass reports exact full-data fairness and utility for the
// resulting centroids.
//
// Usage:
//
//	fairstream -in data.csv -features f1,f2 -sensitive s1,s2 -k 5
//	           [-lambda L | -auto-lambda] [-m 64] [-block 128]
//	           [-chunk 4096] [-max-groups 256] [-seed S] [-max-iter N]
//	           [-tol T] [-parallel P] [-minmax] [-skip-eval]
//	           [-shards S] [-shard-workers W] [-merge-budget B]
//	           [-telemetry run.jsonl] [-save model.json]
//
// -telemetry streams a JSONL run journal of the summary solve (one
// record per iteration plus a final summary record) to the given path;
// with a fixed -seed every field is reproducible except elapsed_ns.
//
// With -minmax an extra leading pass computes per-column minima and
// ranges (pipeline.ScanMinMax), and the later passes read the file
// through pipeline.Scaled so features arrive scaled to [0,1] — three
// passes over the file, one after the other. Each pass holds one chunk
// plus the stream's read-ahead window in memory, and decodes that
// window on GOMAXPROCS goroutines without changing a single output
// byte.
//
// Every run ingests the same way: the file is split on row boundaries
// into -shards byte ranges (dataset.SplitCSV; one range by default),
// summarized by one coreset builder per range on -shard-workers
// goroutines, then merged and solved (pipeline.FitSharded). With
// -shards S > 1 the memory is fixed per shard and the wall-clock is
// bounded by the slowest shard instead of one sequential reader.
// Results are bit-identical for every -shard-workers value;
// -merge-budget caps the merged summary with one extra reduce pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

func main() { cli.Main("fairstream", run) }

// run executes the tool against the given arguments, writing the report
// to out. Split from main for testability. The named result lets the
// deferred close of the telemetry journal report a failed final flush
// instead of dropping it.
func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("fairstream", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		in           = fs.String("in", "", "input CSV path (required; read up to three times, streaming)")
		features     = fs.String("features", "", "comma-separated numeric feature columns (required)")
		sensitive    = fs.String("sensitive", "", "comma-separated categorical sensitive columns (required; these stratify the coreset)")
		k            = fs.Int("k", 5, "number of clusters")
		lambda       = fs.Float64("lambda", 0, "fairness weight λ")
		autoLambda   = fs.Bool("auto-lambda", false, "use the paper's λ=(n/k)² heuristic (n = streamed rows)")
		m            = fs.Int("m", 64, "per-stratum coreset size of each merge-and-reduce level")
		block        = fs.Int("block", 0, "raw points buffered per stratum before compression (0 = 2m)")
		chunk        = fs.Int("chunk", 0, "CSV rows decoded per chunk (0 = 4096)")
		maxGroups    = fs.Int("max-groups", 0, "cap on realized sensitive-value combinations (0 = 256)")
		seed         = fs.Int64("seed", 1, "random seed (coreset sampling and solve)")
		maxIter      = fs.Int("max-iter", 30, "maximum round-robin iterations of the summary solve")
		tol          = fs.Float64("tol", 0, "stop when the objective improves by less than this (0 = zero-moves convergence)")
		parallel     = fs.Int("parallel", 0, "sweep workers for the summary solve: 0 sequential, -1 GOMAXPROCS, n workers")
		shards       = fs.Int("shards", 1, "split ingestion across this many independent summarizer shards (byte-range parallel file reads)")
		shardWorkers = fs.Int("shard-workers", 0, "concurrent shard ingest workers: 0 one per shard, -1 GOMAXPROCS, n workers (results are identical for every value)")
		mergeBudget  = fs.Int("merge-budget", 0, "cap the merged summary's row count; a larger union is reduced by one extra coreset pass (0 = never reduce)")
		minmax       = fs.Bool("minmax", false, "min-max scale features to [0,1] via an extra leading pass")
		skipEval     = fs.Bool("skip-eval", false, "skip the second full-data metrics pass")
		telem        = fs.String("telemetry", "", "write a JSONL run journal of the summary solve to this path")
		saveOut      = fs.String("save", "", "write the trained model artifact (centroids, λ, domains, scaling, provenance) to this path; serve it with fairserved")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *features == "" || *sensitive == "" {
		fs.Usage()
		return fmt.Errorf("-in, -features and -sensitive are required")
	}
	if *k < 1 {
		return fmt.Errorf("-k must be at least 1 (got %d)", *k)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1 (got %d)", *shards)
	}
	if *mergeBudget < 0 {
		return fmt.Errorf("-merge-budget must be non-negative (got %d)", *mergeBudget)
	}
	if *shards == 1 && (*shardWorkers != 0 || *mergeBudget != 0) {
		return fmt.Errorf("-shard-workers and -merge-budget only apply to sharded ingestion; pass -shards > 1")
	}
	// The solve's settings are checked before any pass reads the file.
	pcfg := pipeline.Config{
		K:           *k,
		Lambda:      *lambda,
		AutoLambda:  *autoLambda,
		CoresetSize: *m,
		BlockSize:   *block,
		MaxGroups:   *maxGroups,
		Seed:        *seed,
		MaxIter:     *maxIter,
		Tol:         *tol,
		Parallelism: *parallel,
	}
	if err := pcfg.Validate(); err != nil {
		return err
	}
	spec := dataset.CSVSpec{
		Features:             cli.SplitList(*features),
		CategoricalSensitive: cli.SplitList(*sensitive),
	}

	// scaling is nil until the min-max pass has measured the columns;
	// from then on every pass reads the file through it.
	var scaling *model.Scaling
	open := func() (pipeline.Source, *os.File, error) {
		f, err := os.Open(*in)
		if err != nil {
			return nil, nil, err
		}
		src, err := dataset.NewCSVStream(f, spec, *chunk)
		if err != nil {
			f.Close() //fairvet:ignore errflow -- read-only file closed on the error path; the stream error wins
			return nil, nil, err
		}
		return pipeline.Scaled(src, scaling), f, nil
	}

	// Optional pass 0: min-max statistics.
	if *minmax {
		src, f, err := open()
		if err != nil {
			return err
		}
		scaling, err = pipeline.ScanMinMax(src)
		f.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "min-max pass: scaled %d feature columns\n", len(scaling.Mins))
	}

	// Pass 1: summarize the file's -shards byte ranges (one range by
	// default) and solve on the merged summary.
	var journal *telemetry.RunLog
	if *telem != "" {
		var cerr error
		journal, cerr = telemetry.CreateRunLog(*telem)
		if cerr != nil {
			return cerr
		}
		defer cli.CloseCapture(&retErr, journal)
		pcfg.Observer = journal.Observer("fairstream")
	}
	started := time.Now()
	split, err := dataset.SplitCSV(*in, *shards)
	if err != nil {
		return err
	}
	srcs := make([]pipeline.Source, split.Shards())
	closers := make([]io.Closer, 0, split.Shards())
	closeAll := func() {
		for _, c := range closers {
			c.Close() //fairvet:ignore errflow -- shard readers are opened read-only; nothing was buffered to lose
		}
	}
	for i := range srcs {
		stream, closer, err := split.Open(i, spec, *chunk)
		if err != nil {
			closeAll()
			return err
		}
		closers = append(closers, closer)
		srcs[i] = pipeline.Scaled(stream, scaling)
	}
	res, err := pipeline.FitSharded(srcs, pipeline.ShardedConfig{
		Config:      pcfg,
		Workers:     *shardWorkers,
		MergeBudget: *mergeBudget,
	})
	closeAll()
	if err != nil {
		return err
	}
	if journal != nil {
		journal.WriteSummary("fairstream", telemetry.RunSummary{
			Tool: "fairstream", K: *k, Lambda: res.Lambda, Seed: *seed, Rows: res.N,
			Iterations: res.Solve.Iterations, TotalMoves: res.Solve.TotalMoves,
			Converged: res.Solve.Converged, Objective: res.Solve.Objective,
			KMeansTerm: res.Solve.KMeansTerm, FairnessTerm: res.Solve.FairnessTerm,
			ElapsedNS: time.Since(started).Nanoseconds(),
		})
		if err := journal.Close(); err != nil {
			return fmt.Errorf("telemetry journal: %w", err)
		}
		fmt.Fprintf(out, "wrote run journal to %s\n", *telem)
	}
	fmt.Fprintf(out, "stream: n=%d rows in, %d summary rows out (%.1f× compression), %d strata\n",
		res.N, res.Summary.N(), float64(res.N)/float64(res.Summary.N()), res.Groups)
	if res.Shards > 1 {
		note := ""
		if res.Reduced {
			note = fmt.Sprintf(", union reduced to the %d-row budget", *mergeBudget)
		}
		fmt.Fprintf(out, "sharded: %d byte-range shards ingested in parallel%s\n", res.Shards, note)
	}
	fmt.Fprintf(out, "solve:  k=%d lambda=%.4g iterations=%d converged=%v\n",
		*k, res.Lambda, res.Solve.Iterations, res.Solve.Converged)
	fmt.Fprintf(out, "  summary objective=%.4f (K-Means term %.4f + λ·fairness term %.6g)\n",
		res.Solve.Objective, res.Solve.KMeansTerm, res.Solve.FairnessTerm)
	fmt.Fprintf(out, "  cluster masses: %s\n", formatMasses(res.Solve.Masses))

	if *saveOut != "" {
		art, err := model.New(res.Summary, res.SummaryWeights, res.Solve, model.Provenance{
			Tool: "fairstream", Seed: *seed, Rows: res.N,
		})
		if err != nil {
			return err
		}
		art.Scaling = scaling
		if err := model.Save(*saveOut, art); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote model artifact to %s (serve with: fairserved -model %s)\n", *saveOut, *saveOut)
	}

	if *skipEval {
		return nil
	}

	// Pass 2: exact full-data metrics for the deployed centroids.
	src2, f2, err := open()
	if err != nil {
		return err
	}
	ev, err := pipeline.Evaluate(src2, res.Solve.Centroids, res.Lambda)
	f2.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfull data (nearest-centroid deployment, n=%d):\n", ev.N)
	fmt.Fprintf(out, "  objective=%.4f (K-Means term %.4f + λ·fairness term %.6g)\n",
		ev.Value.Objective, ev.Value.KMeansTerm, ev.Value.FairnessTerm)
	fmt.Fprintf(out, "  cluster sizes: %v\n", ev.Sizes)
	for _, rep := range ev.Fairness {
		fmt.Fprintf(out, "  %-20s AE=%.4f AW=%.4f ME=%.4f MW=%.4f\n",
			rep.Attribute, rep.AE, rep.AW, rep.ME, rep.MW)
	}
	return nil
}

func formatMasses(masses []float64) string {
	parts := make([]string, len(masses))
	for i, m := range masses {
		parts[i] = strconv.FormatFloat(m, 'f', 1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
