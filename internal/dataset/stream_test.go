package dataset

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

const streamCSV = `x,y,g,age,junk
1,2,a,30,zz
3,4,b,40,zz
5,6,a,50,zz
7,8,c,60,zz
9,10,b,70,zz
`

func streamSpec() CSVSpec {
	return CSVSpec{
		Features:             []string{"x", "y"},
		CategoricalSensitive: []string{"g"},
		NumericSensitive:     []string{"age"},
	}
}

// TestCSVStreamChunksMatchReadCSV: concatenating the chunks must
// reproduce ReadCSV's rows, with codes stable across chunk boundaries.
func TestCSVStreamChunksMatchReadCSV(t *testing.T) {
	full, err := ReadCSV(strings.NewReader(streamCSV), streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewCSVStream(strings.NewReader(streamCSV), streamSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	valueOf := map[int]string{} // code -> value, must stay stable
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if chunk.N() > 2 {
			t.Fatalf("chunk has %d rows, want <= 2", chunk.N())
		}
		g := chunk.SensitiveByName("g")
		age := chunk.SensitiveByName("age")
		for i := 0; i < chunk.N(); i++ {
			for j := range chunk.Features[i] {
				if chunk.Features[i][j] != full.Features[rows][j] {
					t.Fatalf("row %d feature %d: %v vs %v", rows, j, chunk.Features[i][j], full.Features[rows][j])
				}
			}
			val := g.Values[g.Codes[i]]
			fullG := full.SensitiveByName("g")
			if want := fullG.Values[fullG.Codes[rows]]; val != want {
				t.Fatalf("row %d categorical %q, want %q", rows, val, want)
			}
			if prev, ok := valueOf[g.Codes[i]]; ok && prev != val {
				t.Fatalf("code %d mapped to %q then %q across chunks", g.Codes[i], prev, val)
			}
			valueOf[g.Codes[i]] = val
			if age.Reals[i] != full.SensitiveByName("age").Reals[rows] {
				t.Fatalf("row %d age mismatch", rows)
			}
			rows++
		}
	}
	if rows != full.N() {
		t.Fatalf("streamed %d rows, want %d", rows, full.N())
	}
	if st.Rows() != full.N() {
		t.Errorf("Rows() = %d, want %d", st.Rows(), full.N())
	}
	// Exhausted stream keeps returning EOF.
	if _, err := st.Next(); err != io.EOF {
		t.Errorf("post-EOF Next: %v", err)
	}
}

// TestCSVStreamDomainGrowth: a value first seen in a late chunk gets a
// fresh code; earlier codes are untouched, and each chunk's Values
// slice is an independent copy.
func TestCSVStreamDomainGrowth(t *testing.T) {
	st, err := NewCSVStream(strings.NewReader(streamCSV), streamSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	g1 := c1.SensitiveByName("g")
	if len(g1.Values) != 2 { // a, b seen in rows 1-3
		t.Fatalf("first chunk domain %v, want [a b]", g1.Values)
	}
	c2, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	g2 := c2.SensitiveByName("g")
	if len(g2.Values) != 3 { // c appears in chunk 2
		t.Fatalf("second chunk domain %v, want 3 values", g2.Values)
	}
	if g2.Values[0] != g1.Values[0] || g2.Values[1] != g1.Values[1] {
		t.Fatalf("domain prefix changed: %v vs %v", g2.Values, g1.Values)
	}
	// Mutating chunk 1's copy must not leak into the stream's domain.
	g1.Values[0] = "mutated"
	if g2.Values[0] == "mutated" {
		t.Fatal("chunks share Values backing arrays")
	}
}

func TestCSVStreamErrors(t *testing.T) {
	if _, err := NewCSVStream(strings.NewReader(streamCSV), CSVSpec{Features: []string{"nope"}}, 2); err == nil {
		t.Error("missing column accepted")
	}
	bad := "x,g\nnotanumber,a\n"
	st, err := NewCSVStream(strings.NewReader(bad), CSVSpec{Features: []string{"x"}, CategoricalSensitive: []string{"g"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err == nil {
		t.Error("unparseable feature accepted")
	}
	// Empty body: immediate EOF.
	st2, err := NewCSVStream(strings.NewReader("x,g\n"), CSVSpec{Features: []string{"x"}, CategoricalSensitive: []string{"g"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Next(); err != io.EOF {
		t.Errorf("empty stream Next: %v", err)
	}
}

// TestCSVStreamEdgeCases covers the degenerate inputs a long-running
// ingester actually meets: ragged rows, empty files, header-only files
// and a chunk boundary landing exactly on EOF.
func TestCSVStreamEdgeCases(t *testing.T) {
	t.Run("empty file", func(t *testing.T) {
		if _, err := NewCSVStream(strings.NewReader(""), streamSpec(), 2); err == nil {
			t.Error("empty file produced a stream (no header to validate)")
		}
	})

	t.Run("header only", func(t *testing.T) {
		st, err := NewCSVStream(strings.NewReader("x,y,g,age,junk\n"), streamSpec(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if chunk, err := st.Next(); err != io.EOF {
			t.Errorf("Next on a header-only file = (%v, %v), want (nil, io.EOF)", chunk, err)
		}
		if chunk, err := st.Next(); err != io.EOF {
			t.Errorf("second Next = (%v, %v), want (nil, io.EOF)", chunk, err)
		}
		if st.Rows() != 0 {
			t.Errorf("Rows() = %d for a header-only file", st.Rows())
		}
	})

	t.Run("ragged short row", func(t *testing.T) {
		src := "x,y,g,age,junk\n1,2,a,30,zz\n3,4\n5,6,a,50,zz\n"
		st, err := NewCSVStream(strings.NewReader(src), streamSpec(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err == nil || err == io.EOF {
			t.Errorf("ragged short row gave err=%v, want a field-count error", err)
		}
	})

	t.Run("ragged long row", func(t *testing.T) {
		src := "x,y,g,age,junk\n1,2,a,30,zz,EXTRA\n"
		st, err := NewCSVStream(strings.NewReader(src), streamSpec(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err == nil || err == io.EOF {
			t.Errorf("ragged long row gave err=%v, want a field-count error", err)
		}
	})

	t.Run("chunk boundary exactly on EOF", func(t *testing.T) {
		// 4 data rows, chunk size 2: two full chunks, then a clean EOF
		// from a third Next that reads nothing.
		src := "x,y,g,age,junk\n" +
			"1,2,a,30,zz\n" + "3,4,b,40,zz\n" + "5,6,a,50,zz\n" + "7,8,c,60,zz\n"
		st, err := NewCSVStream(strings.NewReader(src), streamSpec(), 2)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for {
			chunk, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, chunk.N())
		}
		if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 2 {
			t.Errorf("chunk sizes = %v, want [2 2]", sizes)
		}
		if st.Rows() != 4 {
			t.Errorf("Rows() = %d, want 4", st.Rows())
		}
		// And the stream stays terminated.
		if _, err := st.Next(); err != io.EOF {
			t.Errorf("Next after EOF = %v, want io.EOF", err)
		}
	})

	t.Run("missing trailing newline on boundary", func(t *testing.T) {
		src := "x,y,g,age,junk\n1,2,a,30,zz\n3,4,b,40,zz"
		st, err := NewCSVStream(strings.NewReader(src), streamSpec(), 2)
		if err != nil {
			t.Fatal(err)
		}
		chunk, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk.N() != 2 {
			t.Errorf("chunk has %d rows, want 2", chunk.N())
		}
		if _, err := st.Next(); err != io.EOF {
			t.Errorf("Next after unterminated final row = %v, want io.EOF", err)
		}
	})
}

// TestDomainIndexFrom covers the snapshot-rebuild path model artifacts
// rely on.
func TestDomainIndexFrom(t *testing.T) {
	dom, err := NewDomainIndexFrom([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if dom.Len() != 3 {
		t.Errorf("Len = %d, want 3", dom.Len())
	}
	if c, ok := dom.Lookup("b"); !ok || c != 1 {
		t.Errorf("Lookup(b) = (%d,%v), want (1,true)", c, ok)
	}
	if _, ok := dom.Lookup("z"); ok {
		t.Error("Lookup(z) found an absent value")
	}
	if c := dom.Code("z"); c != 3 {
		t.Errorf("Code(z) = %d, want 3 (appended)", c)
	}
	if c := dom.Code("a"); c != 0 {
		t.Errorf("Code(a) = %d, want 0 (stable)", c)
	}
	if _, err := NewDomainIndexFrom([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate snapshot values accepted")
	}
}

// cutCSV is valid CSV holding everything a window cut must not split:
// quoted newlines, "" escapes next to them, CRLF records, blank lines,
// quoted commas and a final record with no trailing newline.
const cutCSV = "x,y,g,w,skip\r\n" +
	"1,2,a,3,z\r\n" +
	"4,5,\"b\nc\",6,\"q\"\"\n\"\"r\"\n" +
	"\n" +
	"7, 8 ,\"\"\"d\"\"\",9,\"\r\n\"\n" +
	"\r\n" +
	"10,11,\"e,f\",12,z\n" +
	"13,14,a,15,\"\"\n" +
	"16,17,\"b\nc\",18,z"

// TestCSVStreamCutsEverywhere moves the window's cut targets across
// every byte of cutCSV, and of copies with a tokenizer error and a
// cell error late in the file, on 1 to 3 workers: every chunk, error
// and Rows count must match the sequential oracle.
func TestCSVStreamCutsEverywhere(t *testing.T) {
	if ds, err := ReadCSV(strings.NewReader(cutCSV), decodeSpec()); err != nil || ds.N() != 6 {
		t.Fatalf("cutCSV does not read as 6 valid rows: %v", err)
	}
	inputs := []string{
		cutCSV,
		strings.Replace(cutCSV, "10,11", "10,1\"1", 1),
		strings.Replace(cutCSV, "13,14", "13,x", 1),
		strings.Replace(cutCSV, "\"e,f\"", "\"e\"f", 1),
		cutCSV + "\n19,20,\"open",
	}
	for _, in := range inputs {
		for piece := 1; piece <= len(in); piece++ {
			for workers := 1; workers <= 3; workers++ {
				for _, chunk := range []int{1, 3, DefaultChunkSize} {
					checkStream(t, []byte(in), decodeSpec(), chunk, workers, piece)
				}
			}
		}
	}
}

// TestCSVStreamSourceError: a source that fails partway fails the
// stream where a sequential read fails, whichever piece the failure
// lands in.
func TestCSVStreamSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	for at := 0; at <= len(cutCSV); at++ {
		data := cutCSV[:at]
		src := func() io.Reader { return io.MultiReader(strings.NewReader(data), iotest.ErrReader(boom)) }
		for workers := 1; workers <= 3; workers++ {
			for _, piece := range []int{1, 4, pieceSize} {
				checkStreamFrom(t, []byte(data), src, decodeSpec(), 2, workers, piece)
			}
		}
	}
}

// TestCSVStreamNoGoroutineLeak: Next joins every goroutine it starts,
// so neither a drained stream nor one abandoned midway leaves any
// behind.
func TestCSVStreamNoGoroutineLeak(t *testing.T) {
	src := "x,y,g,w,skip\n" + strings.Repeat("1,2,a,3,z\n4,5,\"b\nc\",6,z\n", 500)
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		// A worker that has signalled done may still be exiting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, %d before", when, n, base)
		}
	}

	s, err := newCSVStream(strings.NewReader(src), decodeSpec(), 64, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if s.Rows() != 1000 {
		t.Fatalf("Rows() = %d, want 1000", s.Rows())
	}
	settled("after draining")

	s, err = newCSVStream(strings.NewReader(src), decodeSpec(), 64, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	settled("after abandoning")
}
