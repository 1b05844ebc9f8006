package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// spillSpec reads two features, a categorical and a numeric sensitive
// column: every kind of column a spill record holds.
func spillSpec() dataset.CSVSpec {
	return dataset.CSVSpec{
		Features:             []string{"x", "y"},
		CategoricalSensitive: []string{"g"},
		NumericSensitive:     []string{"w"},
	}
}

// spillCSV returns a headed CSV for spillSpec whose categorical domain
// keeps growing through the file, with signed zeros among the features.
func spillCSV(rows int) []byte {
	var b strings.Builder
	b.WriteString("x,y,g,w\n")
	rng := stats.NewRNG(7)
	for i := 0; i < rows; i++ {
		x := fmt.Sprintf("%.6g", rng.Gaussian(0, 3))
		if i%17 == 0 {
			x = "-0"
		}
		fmt.Fprintf(&b, "%s,%.6g,v%d,%.3f\n", x, rng.Gaussian(50, 9), (i*i)%(1+i/40), rng.Float64())
	}
	return []byte(b.String())
}

// chunkDiff describes the first difference between two chunks, bit for
// bit, or returns "" when they are identical.
func chunkDiff(a, b *dataset.Dataset) string {
	if !slices.Equal(a.FeatureNames, b.FeatureNames) {
		return fmt.Sprintf("feature names %v vs %v", a.FeatureNames, b.FeatureNames)
	}
	if a.N() != b.N() {
		return fmt.Sprintf("%d rows vs %d", a.N(), b.N())
	}
	for i := range a.Features {
		if len(a.Features[i]) != len(b.Features[i]) {
			return fmt.Sprintf("row %d has %d features vs %d", i, len(a.Features[i]), len(b.Features[i]))
		}
		for j, v := range a.Features[i] {
			if math.Float64bits(v) != math.Float64bits(b.Features[i][j]) {
				return fmt.Sprintf("feature [%d][%d] %v vs %v", i, j, v, b.Features[i][j])
			}
		}
	}
	if len(a.Sensitive) != len(b.Sensitive) {
		return fmt.Sprintf("%d sensitive attributes vs %d", len(a.Sensitive), len(b.Sensitive))
	}
	for ai, x := range a.Sensitive {
		y := b.Sensitive[ai]
		switch {
		case x.Name != y.Name || x.Kind != y.Kind:
			return fmt.Sprintf("attribute %d is %s/%s vs %s/%s", ai, x.Name, x.Kind, y.Name, y.Kind)
		case !slices.Equal(x.Values, y.Values):
			return fmt.Sprintf("attribute %q values %q vs %q", x.Name, x.Values, y.Values)
		case !slices.Equal(x.Codes, y.Codes):
			return fmt.Sprintf("attribute %q codes %v vs %v", x.Name, x.Codes, y.Codes)
		case len(x.Reals) != len(y.Reals):
			return fmt.Sprintf("attribute %q has %d values vs %d", x.Name, len(x.Reals), len(y.Reals))
		}
		for i, v := range x.Reals {
			if math.Float64bits(v) != math.Float64bits(y.Reals[i]) {
				return fmt.Sprintf("attribute %q row %d: %v vs %v", x.Name, i, v, y.Reals[i])
			}
		}
	}
	return ""
}

// errText renders an error for comparison, nil included.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkSameStream reads got and want in lockstep and fails at the first
// chunk or terminal error on which they differ; it reads one Next past
// the end of both, which must repeat the terminal error.
func checkSameStream(t *testing.T, label string, got, want Source) {
	t.Helper()
	for i := 0; ; i++ {
		w, wErr := want.Next()
		g, gErr := got.Next()
		if errText(gErr) != errText(wErr) {
			t.Fatalf("%s: Next %d: error %q, want %q", label, i, errText(gErr), errText(wErr))
		}
		if wErr != nil {
			if _, again := got.Next(); errText(again) != errText(wErr) {
				t.Fatalf("%s: Next after the end: error %q, want %q again", label, errText(again), errText(wErr))
			}
			return
		}
		if d := chunkDiff(g, w); d != "" {
			t.Fatalf("%s: chunk %d: %s", label, i, d)
		}
	}
}

// newStream opens a CSVStream over data with spillSpec, failing the test
// on a header error.
func newStream(t *testing.T, data []byte, chunk int) *dataset.CSVStream {
	t.Helper()
	return newSpecStream(t, data, spillSpec(), chunk)
}

func newSpecStream(t *testing.T, data []byte, spec dataset.CSVSpec, chunk int) *dataset.CSVStream {
	t.Helper()
	s, err := dataset.NewCSVStream(bytes.NewReader(data), spec, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spillAll drains src through a fresh spill and returns the spill.
func spillAll(t *testing.T, src Source) *Spill {
	t.Helper()
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	tee := sp.Tee(src)
	for {
		if _, err := tee.Next(); err != nil {
			break
		}
	}
	return sp
}

// TestSpillReplayMatchesCSVStream: a replay yields the stream's chunks
// bit for bit (signed zeros, growing domains, numeric attributes) and
// its end, for several chunk sizes, and a second replay of the same
// spill does too. The spill is a few times spillBuf, so records and
// rows straddle the buffers on both sides.
func TestSpillReplayMatchesCSVStream(t *testing.T) {
	data := spillCSV(8000)
	for _, chunk := range []int{1, 7, 100, 4096} {
		sp := spillAll(t, newStream(t, data, chunk))
		if err := sp.Err(); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for pass := 0; pass < 2; pass++ {
			r, err := sp.Replay()
			if err != nil {
				t.Fatal(err)
			}
			checkSameStream(t, fmt.Sprintf("chunk %d pass %d", chunk, pass), r, newStream(t, data, chunk))
		}
	}
}

// TestSpillReplaysSourceError: a stream that fails mid-file replays its
// chunks up to the failure, then the same error, again on every call.
func TestSpillReplaysSourceError(t *testing.T) {
	data := append(spillCSV(300), []byte("1,2,a,nope\n3,4,b,5\n")...)
	sp := spillAll(t, newStream(t, data, 64))
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}
	r, err := sp.Replay()
	if err != nil {
		t.Fatal(err)
	}
	checkSameStream(t, "failing stream", r, newStream(t, data, 64))
}

// TestSpillUnusable: a spill whose pass stopped early, whose file
// failed a write, or whose source changed its schema cannot be
// replayed, and the tee still hands every chunk on unchanged.
func TestSpillUnusable(t *testing.T) {
	data := spillCSV(300)

	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if _, err := sp.Tee(newStream(t, data, 50)).Next(); err != nil {
		t.Fatal(err)
	}
	if sp.Err() == nil {
		t.Error("a spill whose pass stopped after one chunk reports no error")
	}
	if _, err := sp.Replay(); err == nil {
		t.Error("a spill whose pass stopped after one chunk replays")
	}

	broken, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	broken.f.Close() // every write now fails
	checkSameStream(t, "tee over a failing file", broken.Tee(newStream(t, data, 50)), newStream(t, data, 50))
	if broken.Err() == nil {
		t.Error("a spill whose writes failed reports no error")
	}

	ds := &dataset.Dataset{
		FeatureNames: []string{"x"},
		Features:     [][]float64{{1}, {2}},
		Sensitive: []*dataset.SensitiveAttr{{
			Name: "g", Kind: dataset.Categorical, Values: []string{"a", "b"}, Codes: []int{0, 1},
		}},
	}
	swapped := *ds
	swapped.Sensitive = []*dataset.SensitiveAttr{{
		Name: "g", Kind: dataset.Categorical, Values: []string{"b", "a"}, Codes: []int{1, 0},
	}}
	chunks := &listSource{chunks: []*dataset.Dataset{ds, &swapped}}
	sp2 := spillAll(t, chunks)
	if err := sp2.Err(); err == nil || !strings.Contains(err.Error(), "not an extension") {
		t.Errorf("a reordered domain: Err() = %v", err)
	}
}

// listSource yields its chunks, then io.EOF.
type listSource struct{ chunks []*dataset.Dataset }

func (s *listSource) Next() (*dataset.Dataset, error) {
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	c := s.chunks[0]
	s.chunks = s.chunks[1:]
	return c, nil
}

// TestSpillLeavesNoFile: the spill's name is gone from its directory as
// soon as it exists, and it still replays.
func TestSpillLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	tee := sp.Tee(newStream(t, spillCSV(200), 32))
	for {
		if _, err := tee.Next(); err != nil {
			break
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("spill directory holds %v (err %v), want nothing", entries, err)
	}
	r, err := sp.Replay()
	if err != nil {
		t.Fatal(err)
	}
	checkSameStream(t, "unlinked spill", r, newStream(t, spillCSV(200), 32))
	if _, err := NewSpill(filepath.Join(dir, "missing")); err == nil {
		t.Error("a spill in a missing directory was created")
	}
}

// splitSpills writes data to a file, splits it into shards byte ranges
// and spills each range's stream; it returns the replays in range
// order.
func splitSpills(t *testing.T, data []byte, spec dataset.CSVSpec, shards, chunk int) []Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	split, err := dataset.SplitCSV(path, shards)
	if err != nil {
		t.Fatal(err)
	}
	replays := make([]Source, split.Shards())
	for i := range replays {
		stream, closer, err := split.Open(i, spec, chunk)
		if err != nil {
			t.Fatal(err)
		}
		sp := spillAll(t, stream)
		closer.Close()
		if replays[i], err = sp.Replay(); err != nil {
			t.Fatal(err)
		}
	}
	return replays
}

// sameRows reads got and want to their ends and fails unless both end
// cleanly with the same rows, codes and numeric values bit for bit and
// the same final domains — chunk boundaries may differ — or both fail.
// Which rows precede a failure depends on the chunk boundaries, and a
// byte range numbers its lines from its own start, so failures are not
// compared further.
func sameRows(t *testing.T, label string, got, want Source) {
	t.Helper()
	type drained struct {
		rows   []string
		values [][]string
		err    error
	}
	drain := func(src Source) drained {
		var d drained
		for {
			c, err := src.Next()
			if err != nil {
				d.err = err
				return d
			}
			for i := range c.Features {
				var b strings.Builder
				for _, v := range c.Features[i] {
					fmt.Fprintf(&b, "%x,", math.Float64bits(v))
				}
				for _, attr := range c.Sensitive {
					if attr.Kind == dataset.Numeric {
						fmt.Fprintf(&b, "%x,", math.Float64bits(attr.Reals[i]))
					} else {
						fmt.Fprintf(&b, "%d,", attr.Codes[i])
					}
				}
				d.rows = append(d.rows, b.String())
			}
			d.values = d.values[:0]
			for _, attr := range c.Sensitive {
				d.values = append(d.values, attr.Values)
			}
		}
	}
	g, w := drain(got), drain(want)
	if (g.err == io.EOF) != (w.err == io.EOF) {
		t.Fatalf("%s: ends with %q, want %q", label, errText(g.err), errText(w.err))
	}
	if w.err != io.EOF {
		return
	}
	if !slices.Equal(g.rows, w.rows) {
		t.Fatalf("%s: %d rows differ from the whole stream's %d", label, len(g.rows), len(w.rows))
	}
	if fmt.Sprint(g.values) != fmt.Sprint(w.values) {
		t.Fatalf("%s: final domains %q, want %q", label, g.values, w.values)
	}
}

// TestConcatMatchesWholeStream: the replayed byte ranges of a split
// file, concatenated, give the rows, codes and domains of one stream
// over the whole file, and Evaluate over them reports the same bits.
func TestConcatMatchesWholeStream(t *testing.T) {
	data := spillCSV(900)
	catSpec := dataset.CSVSpec{Features: []string{"x", "y"}, CategoricalSensitive: []string{"g"}}
	centroids := [][]float64{{-2, 45}, {0, 50}, {2, 55}}
	want, err := Evaluate(newSpecStream(t, data, catSpec, 64), centroids, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		label := fmt.Sprintf("%d ranges", shards)
		sameRows(t, label, Concat(splitSpills(t, data, spillSpec(), shards, 64)), newStream(t, data, 64))
		got, err := Evaluate(Concat(splitSpills(t, data, catSpec, shards, 64)), centroids, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s: Evaluate over the ranges = %+v, whole stream %+v", label, got, want)
		}
	}
}
