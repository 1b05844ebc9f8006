package dataset

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// collectShardRows drains every shard of s in shard order, returning
// each row as "f1,f2,...|s1,s2,..." strings (sensitive decoded back to
// values, so shard-local code assignment doesn't matter).
func collectShardRows(t *testing.T, s *CSVShards, spec CSVSpec, chunk int) []string {
	t.Helper()
	var rows []string
	for i := 0; i < s.Shards(); i++ {
		stream, closer, err := s.Open(i, spec, chunk)
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		for {
			ds, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			rows = append(rows, renderRows(ds)...)
		}
		closer.Close()
	}
	return rows
}

// renderRows renders each row of ds as text: features and numeric
// sensitive values in their shortest exact form, categorical values
// quoted, so rows compare by value whatever codes a stream assigned.
func renderRows(ds *Dataset) []string {
	rows := make([]string, ds.N())
	for i := 0; i < ds.N(); i++ {
		var sb strings.Builder
		for j, v := range ds.Features[i] {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%g", v)
		}
		sb.WriteByte('|')
		for ai, attr := range ds.Sensitive {
			if ai > 0 {
				sb.WriteByte(',')
			}
			if attr.Kind == Categorical {
				sb.WriteString(strconv.Quote(attr.Values[attr.Codes[i]]))
			} else {
				fmt.Fprintf(&sb, "%g", attr.Reals[i])
			}
		}
		rows[i] = sb.String()
	}
	return rows
}

func writeTempCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// splitSpec is the two-feature, one-sensitive schema the tests use.
var splitSpec = CSVSpec{Features: []string{"x", "y"}, CategoricalSensitive: []string{"g"}}

// makeCSV renders n rows with deliberately varying widths so even byte
// splits land mid-row.
func makeCSV(n int, trailingNewline bool) string {
	var sb strings.Builder
	sb.WriteString("x,y,g\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d.%06d,%d,g%d\n", i, i*7919%1000000, i%13, i%3)
	}
	out := sb.String()
	if !trailingNewline {
		out = strings.TrimSuffix(out, "\n")
	}
	return out
}

// TestSplitCSVUnionExact checks that for every shard count the shards
// partition the rows exactly — no row lost, duplicated or torn — even
// when byte targets fall mid-row, with and without a trailing newline.
func TestSplitCSVUnionExact(t *testing.T) {
	for _, trailing := range []bool{true, false} {
		for _, n := range []int{1, 2, 17, 100} {
			path := writeTempCSV(t, makeCSV(n, trailing))
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := NewCSVStream(f, splitSpec, 7)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for {
				ds, err := seq.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, renderRows(ds)...)
			}
			f.Close()

			for _, shards := range []int{1, 2, 3, 5, 8} {
				s, err := SplitCSV(path, shards)
				if err != nil {
					t.Fatalf("n=%d shards=%d: %v", n, shards, err)
				}
				if s.Shards() != shards {
					t.Fatalf("n=%d: got %d ranges, want %d", n, s.Shards(), shards)
				}
				got := collectShardRows(t, s, splitSpec, 7)
				if len(got) != len(want) {
					t.Fatalf("n=%d shards=%d trailing=%v: got %d rows, want %d", n, shards, trailing, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d shards=%d row %d: got %q, want %q", n, shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSplitCSVRangesAligned checks the structural contract: ranges are
// contiguous, cover exactly the data region, and every boundary sits
// just past a newline.
func TestSplitCSVRangesAligned(t *testing.T) {
	content := makeCSV(50, true)
	path := writeTempCSV(t, content)
	s, err := SplitCSV(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := int64(strings.IndexByte(content, '\n') + 1)
	prev := headerEnd
	for i, r := range s.Ranges {
		if r.Start != prev {
			t.Fatalf("range %d starts at %d, want %d", i, r.Start, prev)
		}
		if r.End < r.Start {
			t.Fatalf("range %d is negative: %+v", i, r)
		}
		if r.Start > headerEnd && content[r.Start-1] != '\n' {
			t.Fatalf("range %d start %d is mid-row (previous byte %q)", i, r.Start, content[r.Start-1])
		}
		prev = r.End
	}
	if prev != int64(len(content)) {
		t.Fatalf("ranges end at %d, want file size %d", prev, len(content))
	}
}

// TestSplitCSVMoreShardsThanRows checks that tiny files produce empty
// shards that open cleanly and immediately report EOF.
func TestSplitCSVMoreShardsThanRows(t *testing.T) {
	path := writeTempCSV(t, makeCSV(2, true))
	s, err := SplitCSV(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := collectShardRows(t, s, splitSpec, 4)
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	empty := 0
	for _, r := range s.Ranges {
		if r.Len() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("expected at least one empty shard with 6 shards over 2 rows")
	}
}

// TestSplitCSVHeaderOnly checks a file with a header and no data rows:
// every shard opens (the header validates) and yields EOF.
func TestSplitCSVHeaderOnly(t *testing.T) {
	for _, content := range []string{"x,y,g\n", "x,y,g"} {
		path := writeTempCSV(t, content)
		s, err := SplitCSV(path, 3)
		if err != nil {
			t.Fatalf("%q: %v", content, err)
		}
		for i := 0; i < s.Shards(); i++ {
			stream, closer, err := s.Open(i, splitSpec, 4)
			if err != nil {
				t.Fatalf("%q shard %d: %v", content, i, err)
			}
			if _, err := stream.Next(); err != io.EOF {
				t.Fatalf("%q shard %d: got %v, want EOF", content, i, err)
			}
			closer.Close()
		}
	}
}

// TestSplitCSVErrors checks validation of the splitter inputs.
func TestSplitCSVErrors(t *testing.T) {
	if _, err := SplitCSV(writeTempCSV(t, "x,y,g\n1,2,a\n"), 0); err == nil {
		t.Fatal("shards=0 should error")
	}
	if _, err := SplitCSV(writeTempCSV(t, ""), 2); err == nil {
		t.Fatal("empty file should error")
	}
	if _, err := SplitCSV(filepath.Join(t.TempDir(), "missing.csv"), 2); err == nil {
		t.Fatal("missing file should error")
	}
	s, err := SplitCSV(writeTempCSV(t, "x,y,g\n1,2,a\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open(9, splitSpec, 4); err == nil {
		t.Fatal("out-of-range shard should error")
	}
	// Missing column surfaces at Open, per shard.
	if _, _, err := s.Open(0, CSVSpec{Features: []string{"zz"}}, 4); err == nil {
		t.Fatal("missing column should error at Open")
	}
}

// TestSplitCSVErrorLine: a bad row in a later range is reported where
// one whole-file stream reports it, for a cell that does not parse and
// for a record the tokenizer rejects, with and without blank lines
// (which a CSV reader skips) ahead of it.
func TestSplitCSVErrorLine(t *testing.T) {
	for _, c := range []struct {
		bad, line string
		blank     bool
	}{
		{"1.5,oops,g1\n", "line 352", false},
		{"1.5,2,\"g1\n", "line 352", false},
		{"1.5,oops,g1\n", "line 350", true},
		{"1.5,2,\"g1\n", "line 350", true},
	} {
		lines := strings.SplitAfter(makeCSV(400, true), "\n")
		lines[351] = c.bad // data row 351, line 352
		if c.blank {
			lines[100], lines[200] = "\n", "\r\n"
		}
		bad := c.bad
		path := writeTempCSV(t, strings.Join(lines, ""))
		drain := func(shards int) string {
			t.Helper()
			s, err := SplitCSV(path, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Shards(); i++ {
				stream, closer, err := s.Open(i, splitSpec, 64)
				if err != nil {
					t.Fatal(err)
				}
				defer closer.Close()
				for {
					if _, err := stream.Next(); err == io.EOF {
						break
					} else if err != nil {
						return err.Error()
					}
				}
			}
			t.Fatalf("%d shards read the bad row %q without an error", shards, bad)
			return ""
		}
		want := drain(1)
		if !strings.Contains(want, c.line) {
			t.Fatalf("one range reports %q, want %s", want, c.line)
		}
		for _, shards := range []int{2, 3, 7} {
			if got := drain(shards); got != want {
				t.Errorf("%d shards report %q, one range %q", shards, got, want)
			}
		}
	}
}
