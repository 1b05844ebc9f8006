package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bj
}

// declared maps each metric BENCHMARK.json declares for a mode to its
// unit.
func (bj *benchmarkJSON) declared(trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, m := range bj.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || len(n) > 64 {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range bj.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v; the program implements %d workloads", wl, len(workloads))
	}
	var maxBound float64
	for _, m := range bj.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.PerLayer {
		check(m.Name)
	}
	var setup bool
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}
	for _, trace := range []bool{false, true} {
		decl := bj.declared(trace)
		n := 0
		for _, d := range catalogue {
			if d.layer != trace {
				continue
			}
			n++
			if unit, ok := decl[d.name]; !ok || unit != d.unit {
				t.Errorf("catalogue metric %s (%s) is declared as %q in BENCHMARK.json", d.name, d.unit, unit)
			}
		}
		if n != len(decl) {
			t.Errorf("trace=%v: BENCHMARK.json declares %d metrics, the catalogue %d", trace, len(decl), n)
		}
	}
	for _, d := range catalogue {
		for _, w := range d.reach {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s reaches unknown workload %q", d.name, w)
			}
		}
	}
}

// TestSmoke runs every workload at 1/20 scale, untraced and traced, and
// checks that each result line is correct and carries exactly the
// metrics BENCHMARK.json declares for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the served binaries")
	}
	bj := loadBenchmarkJSON(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/fairserved", "./cmd/fairstream")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	work := t.TempDir()
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace, "-smoke", "-bin", bin, "-work", filepath.Join(work, "work")}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			decl := bj.declared(trace == "1")
			for name, unit := range decl {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: declared metric %s (%s) emitted as %+v", w, trace, name, unit, m)
				}
			}
			for name := range res.Metrics {
				if _, ok := decl[name]; !ok {
					t.Errorf("%s trace=%s: emitted undeclared metric %s", w, trace, name)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}
