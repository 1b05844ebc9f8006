package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

// writeTestCSV creates a clusterable CSV with two sensitive columns,
// big enough that the coreset stream actually compresses.
func writeTestCSV(t *testing.T, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	var b strings.Builder
	b.WriteString("x,y,grp,reg\n")
	rng := stats.NewRNG(5)
	for i := 0; i < rows; i++ {
		blob := float64(i%3) * 8
		g := "a"
		if i%4 == 0 {
			g = "b"
		}
		reg := []string{"n", "s", "e"}[i%3]
		fmt.Fprintf(&b, "%.4f,%.4f,%s,%s\n",
			rng.Gaussian(blob, 0.6), rng.Gaussian(100+blob, 6), g, reg)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFairstreamEndToEnd(t *testing.T) {
	csv := writeTestCSV(t, 1200)
	saveOut := filepath.Join(t.TempDir(), "stream.model.json")
	var buf bytes.Buffer
	err := run([]string{
		"-in", csv, "-features", "x,y", "-sensitive", "grp,reg",
		"-k", "3", "-auto-lambda", "-m", "24", "-chunk", "100",
		"-minmax", "-save", saveOut,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"min-max pass", "stream:", "compression", "solve:",
		"full data", "cluster sizes", "grp", "reg", "mean",
		"wrote model artifact",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	m, err := model.Load(saveOut)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 || m.Dim() != 2 || m.Provenance.Tool != "fairstream" {
		t.Errorf("artifact = k%d dim%d tool %q", m.K, m.Dim(), m.Provenance.Tool)
	}
	if m.Provenance.Rows != 1200 {
		t.Errorf("artifact stands for %d rows, want 1200 (the streamed count, not the summary size)", m.Provenance.Rows)
	}
	if m.Lambda <= 0 {
		t.Errorf("artifact lost lambda: %v", m.Lambda)
	}
	if m.Scaling == nil || m.Scaling.Kind != "minmax" {
		t.Error("artifact lost the min-max scaling parameters")
	}
	var names []string
	for _, s := range m.Sensitive {
		names = append(names, s.Name)
		if len(s.Values) == 0 {
			t.Errorf("attribute %q lost its domain", s.Name)
		}
	}
	if !reflect.DeepEqual(names, []string{"grp", "reg"}) {
		t.Errorf("artifact sensitive attributes = %v", names)
	}
}

// TestFairstreamSharded drives the byte-range sharded ingestion path:
// the report shows the shard count, and the full output — summary,
// solve and second-pass metrics — is identical for every worker count.
func TestFairstreamSharded(t *testing.T) {
	csv := writeTestCSV(t, 1200)
	runSharded := func(workers string) string {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{
			"-in", csv, "-features", "x,y", "-sensitive", "grp,reg",
			"-k", "3", "-auto-lambda", "-m", "24", "-chunk", "100",
			"-shards", "3", "-shard-workers", workers,
		}, &buf)
		if err != nil {
			t.Fatalf("run(workers=%s): %v\noutput:\n%s", workers, err, buf.String())
		}
		return buf.String()
	}
	out := runSharded("1")
	for _, want := range []string{"n=1200", "sharded: 3 byte-range shards", "full data"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, workers := range []string{"2", "3", "-1"} {
		if got := runSharded(workers); got != out {
			t.Errorf("-shard-workers %s changed the report:\n--- workers=1\n%s\n--- workers=%s\n%s", workers, out, workers, got)
		}
	}
}

// TestFairstreamShardedMergeBudget: an undersized budget triggers the
// reduce pass, and the report says so with the reduced row count, which
// stays within the budget plus one row per stratum.
func TestFairstreamShardedMergeBudget(t *testing.T) {
	csv := writeTestCSV(t, 1200)
	var buf bytes.Buffer
	err := run([]string{
		"-in", csv, "-features", "x,y", "-sensitive", "grp,reg",
		"-k", "3", "-auto-lambda", "-m", "32", "-chunk", "100",
		"-shards", "4", "-merge-budget", "60", "-skip-eval",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	m := regexp.MustCompile(`(\d+) summary rows out .*, (\d+) strata\n.*union reduced to (\d+) rows \(at most the 60-row budget plus one row per stratum\)`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no reduce note in:\n%s", buf.String())
	}
	rows, _ := strconv.Atoi(m[1])
	strata, _ := strconv.Atoi(m[2])
	if m[3] != m[1] || rows > 60+strata {
		t.Errorf("reduced to %s rows, summary %d rows, over %d strata; want one count within 60 + strata:\n%s", m[3], rows, strata, buf.String())
	}
}

func TestFairstreamSkipEval(t *testing.T) {
	csv := writeTestCSV(t, 400)
	var buf bytes.Buffer
	err := run([]string{
		"-in", csv, "-features", "x,y", "-sensitive", "grp",
		"-k", "2", "-lambda", "50", "-m", "16", "-skip-eval",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "full data") {
		t.Errorf("-skip-eval still ran the second pass:\n%s", buf.String())
	}
}

func TestFairstreamFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-features", "x"}, &buf); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "nope.csv", "-features", "x", "-sensitive", "g"}, &buf); err == nil {
		t.Error("nonexistent file accepted")
	}
}

// TestValidationAudit pins the CLI failure contract for fairstream.
func TestValidationAudit(t *testing.T) {
	csv := writeTestCSV(t, 60)
	cases := map[string][]string{
		"NaN lambda":          {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-lambda", "NaN"},
		"NaN lambda minmax":   {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-lambda", "NaN", "-minmax"},
		"NaN tol":             {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-tol", "NaN"},
		"missing -in":         {"-features", "x", "-sensitive", "g"},
		"nonexistent input":   {"-in", "definitely/not/here.csv", "-features", "x", "-sensitive", "g"},
		"k zero":              {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-k", "0"},
		"k negative":          {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-k", "-1"},
		"unknown flag":        {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-zap"},
		"shards zero":         {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-shards", "0"},
		"negative budget":     {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-merge-budget", "-5"},
		"budget sans shards":  {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-merge-budget", "60"},
		"workers sans shards": {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-shard-workers", "2"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(args, &buf); err == nil {
				t.Errorf("run(%v) accepted a bad invocation", args)
			}
		})
	}
}

// TestFairstreamJournal: -telemetry writes a JSONL journal of the
// summary solve whose iter records and summary survive a fixed-seed
// rerun byte-identically apart from the wall-clock elapsed stamps.
func TestFairstreamJournal(t *testing.T) {
	csv := writeTestCSV(t, 900)
	dir := t.TempDir()
	journalRun := func(path string) string {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{
			"-in", csv, "-features", "x,y", "-sensitive", "grp",
			"-k", "3", "-auto-lambda", "-m", "24", "-chunk", "100",
			"-seed", "4", "-skip-eval", "-telemetry", path,
		}, &buf)
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
		}
		if !strings.Contains(buf.String(), "wrote run journal") {
			t.Errorf("no journal confirmation:\n%s", buf.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := journalRun(filepath.Join(dir, "a.jsonl"))
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines:\n%s", len(lines), first)
	}
	var sum struct {
		Type string `json:"type"`
		Run  string `json:"run"`
		Tool string `json:"tool"`
		Rows int    `json:"rows"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Type != "summary" || sum.Run != "fairstream" || sum.Tool != "fairstream" || sum.Rows != 900 {
		t.Errorf("summary = %+v", sum)
	}

	second := journalRun(filepath.Join(dir, "b.jsonl"))
	elapsed := regexp.MustCompile(`"elapsed_ns":\d+`)
	if elapsed.ReplaceAllString(first, "") != elapsed.ReplaceAllString(second, "") {
		t.Errorf("fixed-seed journals differ beyond elapsed_ns:\n--- a ---\n%s\n--- b ---\n%s", first, second)
	}
}

// TestFairstreamShardedErrorLine: a malformed row in a later byte range
// is reported at its line in the file, as an unsharded run reports it,
// with and without -minmax (whose first pass reads the ranges too).
func TestFairstreamShardedErrorLine(t *testing.T) {
	raw, err := os.ReadFile(writeTestCSV(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[2600] = "1.5,not-a-number,a,n\n" // data row 2600, line 2601
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, minmax := range []bool{false, true} {
		for _, shards := range []string{"1", "3"} {
			args := []string{"-in", bad, "-features", "x,y", "-sensitive", "grp,reg", "-k", "3", "-m", "24", "-shards", shards}
			if minmax {
				args = append(args, "-minmax")
			}
			err := run(args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "line 2601 ") {
				t.Errorf("-shards %s -minmax=%v: error %v, want one naming line 2601", shards, minmax, err)
			}
		}
	}
}
