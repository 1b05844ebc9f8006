package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 {
		t.Errorf("all selects %d experiments, want 11 (the paper's tables+figures)", len(all))
	}
	some, err := selectExperiments("table7, fig5,baselines")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 3 || some[0].name != "table7" || some[2].name != "baselines" {
		t.Errorf("selection = %v", names(some))
	}
	mixed, err := selectExperiments("all, baselines")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 12 || mixed[0].name != all[0].name || mixed[11].name != "baselines" {
		t.Errorf("all,baselines selection = %v", names(mixed))
	}
	if _, err := selectExperiments("table9"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func names(rs []runnable) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.name)
	}
	return out
}

func TestRunKinematicsExperimentEndToEnd(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "results.txt")
	var buf bytes.Buffer
	err := run([]string{"-exp", "table7", "-reps", "2", "-out", outFile}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"### table7", "CO", "FairKM"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("stdout missing %q", want)
		}
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != buf.String() {
		t.Error("-out file differs from stdout")
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "bogus"}, &buf); err == nil {
		t.Error("bogus experiment accepted")
	}
	if err := run([]string{"-bogusflag"}, &buf); err == nil {
		t.Error("bogus flag accepted")
	}
}

// TestValidationAudit pins the CLI failure contract for experiments:
// unknown study names and impossible parameters error cleanly.
func TestValidationAudit(t *testing.T) {
	cases := map[string][]string{
		"unknown study":       {"-exp", "table99"},
		"one bad in list":     {"-exp", "table5,nope"},
		"empty study name":    {"-exp", "table5,,table6"},
		"reps zero":           {"-exp", "table5", "-reps", "0"},
		"unknown flag":        {"-what"},
		"unwritable out file": {"-exp", "table5", "-reps", "1", "-out", "no/such/dir/out.txt"},
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

// TestRunTelemetryAndProfile: -telemetry journals every solver run of
// the experiment (parallel restarts serialize into one valid JSONL
// file) and -cpuprofile writes a non-empty pprof profile.
func TestRunTelemetryAndProfile(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "runs.jsonl")
	profile := filepath.Join(dir, "cpu.prof")
	var buf bytes.Buffer
	err := run([]string{"-exp", "table7", "-reps", "2",
		"-telemetry", journal, "-cpuprofile", profile}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("journal is empty")
	}
	methods := map[string]bool{}
	for i, line := range lines {
		var rec struct {
			Type string `json:"type"`
			Run  string `json:"run"`
			Iter int    `json:"iter"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %d not JSON: %v\n%s", i, err, line)
		}
		if rec.Type != "iter" || rec.Iter < 1 {
			t.Errorf("journal line %d = %+v", i, rec)
		}
		methods[strings.SplitN(rec.Run, "[", 2)[0]] = true
	}
	// table7 runs FairKM and the K-Means baseline; both must journal.
	for _, m := range []string{"FairKM", "K-Means"} {
		if !methods[m] {
			t.Errorf("journal has no %s runs (methods: %v)", m, methods)
		}
	}
	if prof, err := os.ReadFile(profile); err != nil || len(prof) == 0 {
		t.Errorf("cpu profile: err=%v size=%d", err, len(prof))
	}
}
