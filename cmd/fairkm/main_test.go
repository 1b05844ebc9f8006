package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/model"
	"repro/internal/stats"
)

// writeTestCSV creates a small clusterable CSV with a sensitive column.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	var b strings.Builder
	b.WriteString("x,y,grp,age\n")
	rng := stats.NewRNG(9)
	for i := 0; i < 80; i++ {
		blob := float64(i%2) * 6
		g := "a"
		if i%3 == 0 {
			g = "b"
		}
		fmt.Fprintf(&b, "%.4f,%.4f,%s,%.1f\n",
			rng.Gaussian(blob, 0.5), rng.Gaussian(0, 0.5), g, rng.Gaussian(40, 10))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	csv := writeTestCSV(t)
	assignOut := filepath.Join(t.TempDir(), "assign.csv")
	var buf bytes.Buffer
	err := run([]string{
		"-in", csv, "-features", "x,y", "-sensitive", "grp",
		"-numeric-sensitive", "age",
		"-k", "2", "-auto-lambda", "-compare", "-assign", assignOut,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"FairKM:", "K-Means(N)", "grp", "DevC", "mean", "avgGap"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(assignOut)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 81 { // header + 80 rows
		t.Errorf("assignment file has %d lines, want 81", lines)
	}
}

func TestRunMissingArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing -in accepted")
	}
	csv := writeTestCSV(t)
	if err := run([]string{"-in", csv, "-features", "x,y"}, &buf); err == nil {
		t.Error("missing sensitive columns accepted")
	}
	if err := run([]string{"-in", "/nonexistent.csv", "-features", "x", "-sensitive", "g"}, &buf); err == nil {
		t.Error("nonexistent input accepted")
	}
	if err := run([]string{"-in", csv, "-features", "nope", "-sensitive", "grp"}, &buf); err == nil {
		t.Error("unknown feature column accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := cli.SplitList(" a, b ,c ")
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("splitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("splitList[%d] = %q", i, got[i])
		}
	}
	if cli.SplitList("") != nil {
		t.Error("empty list should be nil")
	}
}

// TestValidationAudit pins the CLI failure contract: every bad
// invocation returns a clear error from run (main converts it to exit
// code 2) and never panics.
func TestValidationAudit(t *testing.T) {
	csv := writeTestCSV(t)
	cases := map[string][]string{
		"NaN lambda":        {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-lambda", "NaN"},
		"infinite lambda":   {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-lambda", "+Inf"},
		"NaN tol":           {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-tol", "NaN"},
		"missing -in":       {"-features", "x", "-sensitive", "g"},
		"missing -features": {"-in", "x.csv", "-sensitive", "g"},
		"no sensitive":      {"-in", "x.csv", "-features", "x"},
		"nonexistent input": {"-in", "definitely/not/here.csv", "-features", "x", "-sensitive", "g"},
		"k zero":            {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-k", "0"},
		"k negative":        {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-k", "-3"},
		"unknown flag":      {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-nope"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			// A rejected run must not leave a -telemetry journal behind.
			journal := filepath.Join(t.TempDir(), "run.jsonl")
			args = append(args, "-telemetry", journal)
			var buf bytes.Buffer
			if err := run(args, &buf); err == nil {
				t.Errorf("run(%v) accepted a bad invocation", args)
			}
			if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("run(%v) left a journal behind (stat: %v)", args, err)
			}
		})
	}
}

// TestRunSaveArtifact: -save writes a loadable artifact that carries
// the scaling, λ and sensitive domains of the run.
func TestRunSaveArtifact(t *testing.T) {
	csv := writeTestCSV(t)
	saveOut := filepath.Join(t.TempDir(), "km.model.json")
	var buf bytes.Buffer
	err := run([]string{
		"-in", csv, "-features", "x,y", "-sensitive", "grp",
		"-numeric-sensitive", "age", "-k", "3", "-auto-lambda",
		"-save", saveOut,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "wrote model artifact") {
		t.Errorf("no artifact confirmation:\n%s", buf.String())
	}
	m, err := model.Load(saveOut)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 || m.Provenance.Tool != "fairkm" || m.Provenance.Rows != 80 {
		t.Errorf("artifact = k%d tool %q rows %d", m.K, m.Provenance.Tool, m.Provenance.Rows)
	}
	if m.Scaling == nil {
		t.Error("artifact lost the default -minmax scaling")
	}
	if len(m.Sensitive) != 2 || m.Sensitive[0].Kind != model.KindCategorical || m.Sensitive[1].Kind != model.KindNumeric {
		t.Errorf("artifact sensitive schema = %+v", m.Sensitive)
	}
}

// TestRunJournal pins the -telemetry contract: the journal is valid
// JSONL (iter records then one summary), and with a fixed seed two
// runs' journals are byte-identical once the wall-clock elapsed_ns
// stamps are normalized away — nothing else may vary.
func TestRunJournal(t *testing.T) {
	csv := writeTestCSV(t)
	journalRun := func(path string) string {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{
			"-in", csv, "-features", "x,y", "-sensitive", "grp",
			"-k", "2", "-auto-lambda", "-seed", "7", "-telemetry", path,
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
	dir := t.TempDir()
	first := journalRun(filepath.Join(dir, "a.jsonl"))

	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines, want iter records plus a summary:\n%s", len(lines), first)
	}
	for i, line := range lines[:len(lines)-1] {
		var rec struct {
			Type string `json:"type"`
			Run  string `json:"run"`
			Iter int    `json:"iter"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if rec.Type != "iter" || rec.Run != "fairkm" || rec.Iter != i+1 {
			t.Errorf("line %d = %+v, want iter %d of run fairkm", i, rec, i+1)
		}
	}
	var sum struct {
		Type string `json:"type"`
		Tool string `json:"tool"`
		K    int    `json:"k"`
		Seed int64  `json:"seed"`
		Rows int    `json:"rows"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Type != "summary" || sum.Tool != "fairkm" || sum.K != 2 || sum.Seed != 7 || sum.Rows != 80 {
		t.Errorf("summary = %+v", sum)
	}

	second := journalRun(filepath.Join(dir, "b.jsonl"))
	elapsed := regexp.MustCompile(`"elapsed_ns":\d+`)
	normA := elapsed.ReplaceAllString(first, `"elapsed_ns":0`)
	normB := elapsed.ReplaceAllString(second, `"elapsed_ns":0`)
	if normA != normB {
		t.Errorf("fixed-seed journals differ beyond elapsed_ns:\n--- a ---\n%s\n--- b ---\n%s", first, second)
	}
}
