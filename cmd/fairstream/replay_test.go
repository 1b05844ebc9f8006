package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fairclust "repro"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// fullDataLines is the part of a fairstream report after the
// "full data" header: the objective line and one line per attribute
// plus "mean" (the cluster-size line is skipped).
func fullDataLines(t *testing.T, out string) []string {
	t.Helper()
	_, tail, ok := strings.Cut(out, "full data (nearest-centroid deployment")
	if !ok {
		t.Fatalf("report has no full-data section:\n%s", out)
	}
	var lines []string
	for _, line := range strings.Split(tail, "\n")[1:] {
		if line == "" || strings.HasPrefix(line, "  cluster sizes:") {
			continue
		}
		lines = append(lines, line)
	}
	return lines
}

// evaluationLines formats ev exactly as fairstream prints it.
func evaluationLines(ev *pipeline.Evaluation) []string {
	lines := []string{fmt.Sprintf("  objective=%.4f (K-Means term %.4f + λ·fairness term %.6g)",
		ev.Value.Objective, ev.Value.KMeansTerm, ev.Value.FairnessTerm)}
	for _, rep := range ev.Fairness {
		lines = append(lines, fmt.Sprintf("  %-20s AE=%.4f AW=%.4f ME=%.4f MW=%.4f",
			rep.Attribute, rep.AE, rep.AW, rep.ME, rep.MW))
	}
	return lines
}

// replaySource streams the CSV in fairstream's chunks; with a non-nil
// scaling it hands out scaled copies of every row.
type replaySource struct {
	src     *dataset.CSVStream
	scaling *model.Scaling
}

func (s *replaySource) Next() (*dataset.Dataset, error) {
	chunk, err := s.src.Next()
	if err != nil || s.scaling == nil {
		return chunk, err
	}
	scaled := *chunk
	scaled.Features = make([][]float64, len(chunk.Features))
	for i, row := range chunk.Features {
		scaled.Features[i] = append([]float64(nil), row...)
		s.scaling.Apply(scaled.Features[i])
	}
	return &scaled, nil
}

func openReplay(t *testing.T, path string, spec dataset.CSVSpec, chunk int, scaling *model.Scaling) *replaySource {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	src, err := dataset.NewCSVStream(f, spec, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return &replaySource{src: src, scaling: scaling}
}

// TestFairstreamMatchesLibraryReplay pins fairstream's -minmax report
// to the library calls it stands for. The printed full-data objective
// and per-attribute lines must equal (1) a Summarizer.Add/Solve plus
// pipeline.Evaluate replay over min-max scaled chunks, and (2) the
// saved artifact re-evaluated over the raw CSV by EvaluateStreamModel,
// at the default -shards and at -shards 3.
func TestFairstreamMatchesLibraryReplay(t *testing.T) {
	csv := writeTestCSV(t, 1500)
	spec := dataset.CSVSpec{Features: []string{"x", "y"}, CategoricalSensitive: []string{"grp", "reg"}}
	const chunk = 100
	dir := t.TempDir()
	fairstream := func(save string, extra ...string) []string {
		t.Helper()
		args := append([]string{
			"-in", csv, "-features", "x,y", "-sensitive", "grp,reg",
			"-k", "3", "-auto-lambda", "-m", "24", "-chunk", fmt.Sprint(chunk),
			"-minmax", "-save", save,
		}, extra...)
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
		}
		return fullDataLines(t, buf.String())
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n--- fairstream\n%s\n--- reference\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	// Reference 1: the min-max pass, then Summarizer.Add/Solve and
	// pipeline.Evaluate over scaled copies of the same chunks.
	var mins, maxs []float64
	raw := openReplay(t, csv, spec, chunk, nil)
	for {
		c, err := raw.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range c.Features {
			if mins == nil {
				mins = append([]float64(nil), row...)
				maxs = append([]float64(nil), row...)
			}
			for j, v := range row {
				if v < mins[j] {
					mins[j] = v
				}
				if v > maxs[j] {
					maxs[j] = v
				}
			}
		}
	}
	ranges := make([]float64, len(mins))
	for j := range ranges {
		ranges[j] = maxs[j] - mins[j]
	}
	scaling := &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}
	sum, err := pipeline.NewSummarizer(pipeline.Config{K: 3, AutoLambda: true, CoresetSize: 24, Seed: 1, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	scaled := openReplay(t, csv, spec, chunk, scaling)
	for {
		c, err := scaled.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sum.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := pipeline.Evaluate(openReplay(t, csv, spec, chunk, scaling), res.Solve.Centroids, res.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	replay := evaluationLines(ev)
	if len(replay) != 4 {
		t.Fatalf("replay reports %d lines, want objective + grp, reg, mean:\n%s", len(replay), strings.Join(replay, "\n"))
	}

	for _, shards := range [][]string{nil, {"-shards", "3"}} {
		name := "default shards"
		if shards != nil {
			name = "-shards 3"
		}
		save := filepath.Join(dir, fmt.Sprintf("stream-%d.model.json", len(shards)))
		printed := fairstream(save, shards...)
		if shards == nil {
			same(name+": full-data report vs Summarizer replay", printed, replay)
		}

		// Reference 2: the saved artifact over the raw CSV.
		m, err := model.Load(save)
		if err != nil {
			t.Fatal(err)
		}
		if shards == nil && !sameCentroids(m.Centroids, res.Solve.Centroids) {
			t.Errorf("%s: artifact centroids %v differ from the replay's %v", name, m.Centroids, res.Solve.Centroids)
		}
		evm, err := fairclust.EvaluateStreamModel(openReplay(t, csv, spec, chunk, nil), m)
		if err != nil {
			t.Fatal(err)
		}
		same(name+": full-data report vs EvaluateStreamModel of the artifact", printed, evaluationLines(evm))
	}
}

func sameCentroids(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for j := range a[c] {
			if math.Float64bits(a[c][j]) != math.Float64bits(b[c][j]) {
				return false
			}
		}
	}
	return true
}
