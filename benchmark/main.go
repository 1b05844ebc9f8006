// Command benchmark is the repository's end-to-end benchmark. It runs
// one workload, checks every output against an oracle, and prints its
// metrics as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Run it through run.sh from the repository root, which builds it and
// the fairserved and fairstream binaries it drives:
//
//	bash benchmark/run.sh --workload fit-adult --seed 1 --seconds 20 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer breakdown and write their spans to
// .bench_build/trace. Inputs are generated from --seed; the programs
// under test only ever see those inputs. See README.md for the
// workloads, the metric catalogue and the calibration record.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// opts is one run's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	bin      string // directory holding fairserved and fairstream
	work     string // scratch directory for generated inputs
	traceDir string
}

// scale shrinks an input size to 1/20 for smoke runs.
func (o *opts) scale(n int) int {
	if o.smoke {
		return max(n/20, 1)
	}
	return n
}

// setupBudget is how long a run repeats its set-up to time it: a sixth
// of the measured time, about four seconds at the frozen run length.
func (o *opts) setupBudget() time.Duration { return o.seconds / 6 }

var workloads = map[string]func(*opts, *report) error{
	wFit:   runFit,
	wStrm:  runStream,
	wSmall: runServe,
	wBulk:  runServe,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: fit-adult, stream-adult, serve-small or serve-bulk")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 20, "how long the run measures")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "shrink every input to about 1/20 size")
		bin      = fs.String("bin", ".bench_build/bin", "directory holding the fairserved and fairstream binaries")
		work     = fs.String("work", ".bench_build/work", "scratch directory for generated inputs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	o := &opts{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		smoke:    *smoke,
		bin:      *bin,
		work:     filepath.Join(*work, *workload),
		traceDir: filepath.Join(filepath.Dir(*work), "trace"),
	}
	for _, name := range []string{"fairserved", "fairstream"} {
		if _, err := os.Stat(filepath.Join(o.bin, name)); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
	}
	r := &report{workload: o.workload, trace: o.trace, out: stdout, values: map[string]float64{}}
	if err := body(o, r); err != nil {
		return err
	}
	return r.emit()
}

// report collects one run's counts, checks and metric values.
type report struct {
	workload  string
	trace     bool
	out       io.Writer
	attempted int
	failed    int
	wrong     int // outputs that disagreed with their oracle
	values    map[string]float64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note prints an informational line ahead of the result line.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// mismatch records an output that disagrees with its oracle.
func (r *report) mismatch(format string, args ...any) {
	r.wrong++
	r.note("MISMATCH "+format, args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line: every metric of the run's mode, with
// unreached per-layer metrics as 0. A reached metric the workload did
// not set, an undeclared one, or a non-finite value is an error.
func (r *report) emit() error {
	metrics := map[string]metricValue{}
	declared := map[string]bool{}
	for _, d := range catalogue {
		if d.layer != r.trace {
			continue
		}
		declared[d.name] = true
		v, ok := r.values[d.name]
		if !ok && d.reaches(r.workload) {
			return fmt.Errorf("%s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s measured %s as %v", r.workload, d.name, v)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !declared[name] {
			return fmt.Errorf("%s measured undeclared metric %s", r.workload, name)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}
