package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stream builds a test2json-shaped event stream with the name and the
// numbers split across output events, the way `go test -json`
// actually emits benchmark results.
func stream(results ...[3]string) string { // {test, nsOp, extra}
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"repro/internal/x"}` + "\n")
	b.WriteString(`{"Action":"output","Package":"repro/internal/x","Output":"goos: linux\n"}` + "\n")
	for _, r := range results {
		test, ns := r[0], r[1]
		fmt.Fprintf(&b, `{"Action":"run","Package":"repro/internal/x","Test":%q}`+"\n", test)
		fmt.Fprintf(&b, `{"Action":"output","Package":"repro/internal/x","Test":%q,"Output":%q}`+"\n",
			test, test+"         \t")
		fmt.Fprintf(&b, `{"Action":"output","Package":"repro/internal/x","Test":%q,"Output":%q}`+"\n",
			test, "     307\t   "+ns+" ns/op\t       0 B/op\t       0 allocs/op\n")
	}
	return b.String()
}

func TestParseStreamSplitLines(t *testing.T) {
	got, err := parseStream(strings.NewReader(stream(
		[3]string{"BenchmarkSweep/aggregate", "4051944", ""},
		[3]string{"BenchmarkServe/kernel=indexed/k=150", "1690000.5", ""},
	)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"repro/internal/x:BenchmarkSweep/aggregate":            4051944,
		"repro/internal/x:BenchmarkServe/kernel=indexed/k=150": 1690000.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseStreamMinOfCount(t *testing.T) {
	// -count 3 repeats the same benchmark; the floor wins.
	got, err := parseStream(strings.NewReader(stream(
		[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "500", ""},
		[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "450", ""},
		[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "520", ""},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["repro/internal/x:BenchmarkLloyd/kernel=pruned/k=50"]; v != 450 {
		t.Fatalf("min ns/op = %v, want 450", v)
	}
}

// TestParseStreamUntaggedRuns: `go test -json -count N` emits the
// result lines of runs 2..N with no Test field. The committed
// BENCH_kernels.json recorded BenchmarkServe/kernel=indexed/k=150 at
// 1647016, 1750119 and 1622825 ns/op, only the first tagged; the
// floor is the third. Its BenchmarkServe/single runs print the
// GOMAXPROCS suffix (single-2), which must not become a separate key.
func TestParseStreamUntaggedRuns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"repro/internal/serve:BenchmarkServe/kernel=indexed/k=150": 1622825,
		"repro/internal/serve:BenchmarkServe/single":               481.1,
	}
	for key, v := range want {
		if got[key] != v {
			t.Errorf("%s = %v, want %v", key, got[key], v)
		}
	}
	for key := range got {
		if strings.HasSuffix(key, "-2") {
			t.Errorf("GOMAXPROCS-suffixed key %s", key)
		}
	}
}

func TestParseStreamEmpty(t *testing.T) {
	if _, err := parseStream(strings.NewReader(`{"Action":"start","Package":"p"}` + "\n")); err == nil {
		t.Fatal("want error on stream with no benchmark results")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{
		"p:BenchmarkSweep/naive":  1000,
		"p:BenchmarkSweep/fused":  1000,
		"p:BenchmarkGone":         1000,
		"p:BenchmarkOther/ignore": 1000,
	}
	cur := map[string]float64{
		"p:BenchmarkSweep/naive": 1049, // +4.9%: within tolerance
		"p:BenchmarkSweep/fused": 1051, // +5.1%: regression
		"p:BenchmarkNew":         10,   // only in current: ignored
	}
	rep := compare(base, cur, regexp.MustCompile(`BenchmarkSweep|BenchmarkGone`), 0.05, nil, "")
	if rep.compared != 2 {
		t.Errorf("compared = %d, want 2", rep.compared)
	}
	if rep.regressions != 1 {
		t.Errorf("regressions = %d, want 1", rep.regressions)
	}
	if rep.missing != 1 {
		t.Errorf("missing = %d, want 1", rep.missing)
	}
	joined := strings.Join(rep.lines, "\n")
	if !strings.Contains(joined, "REGRESSED") || !strings.Contains(joined, "fused") {
		t.Errorf("report missing REGRESSED fused line:\n%s", joined)
	}
	if strings.Contains(joined, "ignore") || strings.Contains(joined, "BenchmarkNew") {
		t.Errorf("report leaked unmatched/new benchmarks:\n%s", joined)
	}
}

func TestCompareImprovementIsOK(t *testing.T) {
	base := map[string]float64{"p:BenchmarkX": 1000}
	cur := map[string]float64{"p:BenchmarkX": 400}
	rep := compare(base, cur, regexp.MustCompile(`.`), 0.05, nil, "")
	if rep.regressions != 0 || rep.missing != 0 || rep.compared != 1 {
		t.Fatalf("improvement misreported: %+v", rep)
	}
}

// TestCompareRenamedPair: -rename-from/-rename-to rewrite each
// selected baseline name before the current lookup, comparing variant
// pairs within one recording (the telemetry-overhead guard shape:
// telemetry=on must stay within tolerance of telemetry=off).
func TestCompareRenamedPair(t *testing.T) {
	both := map[string]float64{
		"p:BenchmarkServeTelemetry/telemetry=off/workers=2": 1000,
		"p:BenchmarkServeTelemetry/telemetry=on/workers=2":  1030, // +3%: within
	}
	rep := compare(both, both, regexp.MustCompile(`telemetry=off`), 0.05,
		regexp.MustCompile(`telemetry=off`), "telemetry=on")
	if rep.compared != 1 || rep.regressions != 0 || rep.missing != 0 {
		t.Fatalf("renamed pair misreported: %+v", rep)
	}
	if !strings.Contains(rep.lines[0], "telemetry=on") {
		t.Errorf("report should show the renamed (current) name:\n%s", rep.lines[0])
	}

	slow := map[string]float64{
		"p:BenchmarkServeTelemetry/telemetry=off/workers=2": 1000,
		"p:BenchmarkServeTelemetry/telemetry=on/workers=2":  1100, // +10%: regression
	}
	rep = compare(slow, slow, regexp.MustCompile(`telemetry=off`), 0.05,
		regexp.MustCompile(`telemetry=off`), "telemetry=on")
	if rep.regressions != 1 {
		t.Fatalf("overhead regression not caught: %+v", rep)
	}
}

// writeStream drops a synthetic -json recording into dir.
func writeStream(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunVerdicts drives run end to end: within-tolerance passes,
// regression and missing-benchmark recordings return errors (which
// cli.Main turns into the one-line/exit-2 contract).
func TestRunVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := writeStream(t, dir, "base.json", stream([3]string{"BenchmarkSweep/aggregate", "1000", ""}))
	ok := writeStream(t, dir, "ok.json", stream([3]string{"BenchmarkSweep/aggregate", "1040", ""}))
	bad := writeStream(t, dir, "bad.json", stream([3]string{"BenchmarkSweep/aggregate", "1200", ""}))
	other := writeStream(t, dir, "other.json", stream([3]string{"BenchmarkOther/x", "10", ""}))

	var buf bytes.Buffer
	if err := run([]string{"-baseline", base, "-current", ok, "-match", "BenchmarkSweep"}, &buf); err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "within 5% of baseline") {
		t.Errorf("missing success summary:\n%s", buf.String())
	}
	if err := run([]string{"-baseline", base, "-current", bad, "-match", "BenchmarkSweep"}, &buf); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("regression not reported, err=%v", err)
	}
	if err := run([]string{"-baseline", base, "-current", other, "-match", "BenchmarkSweep"}, &buf); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing benchmark not reported, err=%v", err)
	}
}

// TestBenchguardValidationAudit pins the CLI contract on bad
// invocations: every one must return an error, never panic or exit.
func TestBenchguardValidationAudit(t *testing.T) {
	dir := t.TempDir()
	base := writeStream(t, dir, "base.json", stream([3]string{"BenchmarkX", "100", ""}))
	// A 0 ns/op floor once parsed as 0, so a 0-vs-0 pair compared as
	// ratio NaN and read "ok"; such a recording holds no usable sample.
	zero := writeStream(t, dir, "zero.json", stream([3]string{"BenchmarkX", "0", ""}))
	cases := map[string][]string{
		"no files":                 {},
		"missing current":          {"-baseline", base},
		"unknown flag":             {"-baseline", base, "-current", base, "-zap"},
		"bad match regexp":         {"-baseline", base, "-current", base, "-match", "("},
		"negative tol":             {"-baseline", base, "-current", base, "-tol", "-0.1"},
		"unreadable file":          {"-baseline", filepath.Join(dir, "nope.json"), "-current", base},
		"match selects nothing":    {"-baseline", base, "-current", base, "-match", "BenchmarkNope"},
		"stray positional args":    {"-baseline", base, "-current", base, "extra"},
		"rename-from alone":        {"-baseline", base, "-current", base, "-rename-from", "x"},
		"rename-to alone":          {"-baseline", base, "-current", base, "-rename-to", "y"},
		"bad rename regexp":        {"-baseline", base, "-current", base, "-rename-from", "(", "-rename-to", "y"},
		"zero ns-per-op recording": {"-baseline", zero, "-current", zero},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(args, &buf); err == nil {
				t.Errorf("benchguard accepted a bad invocation: %v", args)
			}
		})
	}
}
