package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

func writeCSV(t *testing.T, binary bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	var b strings.Builder
	b.WriteString("x,y,grp\n")
	rng := stats.NewRNG(4)
	vals := []string{"a", "b", "c"}
	if binary {
		vals = []string{"a", "b"}
	}
	for i := 0; i < 90; i++ {
		blob := float64(i%3) * 5
		fmt.Fprintf(&b, "%.4f,%.4f,%s\n",
			rng.Gaussian(blob, 0.5), rng.Gaussian(0, 0.5), vals[i%len(vals)])
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFairbenchEndToEnd(t *testing.T) {
	csv := writeCSV(t, true)
	var buf bytes.Buffer
	err := run([]string{"-in", csv, "-features", "x,y", "-sensitive", "grp", "-k", "3"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"K-Means(N)", "FairKM(all)", "ZGYA(grp)",
		"Fairlet(grp)", "Bera(all)", "FairSC(all)",
		"FairKCenter(grp)", "GreedyCapture", "FairProj+KM(all)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "skipped") {
		t.Errorf("nothing should be skipped on this input:\n%s", out)
	}
}

func TestFairbenchSkipsFairletOnNonBinary(t *testing.T) {
	csv := writeCSV(t, false)
	var buf bytes.Buffer
	if err := run([]string{"-in", csv, "-features", "x,y", "-sensitive", "grp", "-k", "3"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), `skipped: attribute "grp" is not binary`) {
		t.Errorf("expected fairlet skip notice:\n%s", buf.String())
	}
}

func TestFairbenchValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing args accepted")
	}
	csv := writeCSV(t, true)
	if err := run([]string{"-in", csv, "-features", "x", "-sensitive", "grp", "-single-attr", "nope"}, &buf); err == nil {
		t.Error("unknown single-attr accepted")
	}
}

// TestValidationAudit pins the CLI failure contract for fairbench.
func TestValidationAudit(t *testing.T) {
	csv := writeCSV(t, true)
	cases := map[string][]string{
		"missing -in":       {"-features", "x", "-sensitive", "g"},
		"nonexistent input": {"-in", "definitely/not/here.csv", "-features", "x", "-sensitive", "g"},
		"k zero":            {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-k", "0"},
		"unknown flag":      {"-in", "x.csv", "-features", "x", "-sensitive", "g", "-zap"},
		"k above rows":      {"-in", csv, "-features", "x,y", "-sensitive", "grp", "-k", "91"},
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
