package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReadCSV checks the CSV loader never panics on malformed input —
// it must either return a valid dataset or an error.
func FuzzReadCSV(f *testing.F) {
	f.Add("x,g\n1,a\n2,b\n")
	f.Add("x,g\n")
	f.Add("")
	f.Add("x,g\nnope,a\n")
	f.Add("x,g\n1,a,extra\n")
	f.Add("x,g\n1e309,a\n") // overflows to +Inf
	f.Add("g,x\n a , 5 \n")
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadCSV(strings.NewReader(input), CSVSpec{
			Features:             []string{"x"},
			CategoricalSensitive: []string{"g"},
		})
		if err != nil {
			return
		}
		if verr := ds.Validate(); verr != nil {
			t.Fatalf("ReadCSV returned invalid dataset for %q: %v", input, verr)
		}
	})
}

// decodeSpec is the column layout FuzzCSVDecode reads: two features, a
// categorical and a numeric sensitive column. Its seed corpus in
// testdata/fuzz/FuzzCSVDecode uses the header "x,y,g,w,skip".
func decodeSpec() CSVSpec {
	return CSVSpec{
		Features:             []string{"x", "y"},
		CategoricalSensitive: []string{"g"},
		NumericSensitive:     []string{"w"},
	}
}

// FuzzCSVDecode is the differential test of the byte-level tokenizer:
// for any bytes, the tokenizer must return encoding/csv's records and
// errors, and ReadCSV and CSVStream must return exactly what their
// encoding/csv-based oracles return. CSVStream runs at several chunk
// sizes, on 1 to 3 workers, with pieces from 1 byte up, so its window
// cuts are searched for from every kind of position: inside quoted
// fields and "" escapes, between '\r' and '\n', in blank lines and in
// a final record with no newline.
func FuzzCSVDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTokenizer(t, data, bytes.NewReader(data), 1)
		checkTokenizer(t, data, iotest.OneByteReader(bytes.NewReader(data)), 7)
		checkTokenizer(t, data, bytes.NewReader(data), tokenBufSize)
		checkReadCSV(t, data, decodeSpec())
		for _, chunk := range []int{1, 2, 7, 4096} {
			for workers := 1; workers <= 3; workers++ {
				for _, piece := range []int{1, 2, 5, 16, pieceSize} {
					checkStream(t, data, decodeSpec(), chunk, workers, piece)
				}
			}
		}
	})
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkTokenizer reads data with a tokenizer over src with a bufSize
// read buffer and with encoding/csv, and fails at the first record or
// error on which they differ.
func checkTokenizer(t *testing.T, data []byte, src io.Reader, bufSize int) {
	t.Helper()
	cr := csv.NewReader(bytes.NewReader(data))
	cr.TrimLeadingSpace = true
	tok := newTokenizer(src, bufSize)
	for rec := 1; ; rec++ {
		want, wantErr := cr.Read()
		got, gotErr := tok.next()
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("buf %d, record %d of %q: error %q, encoding/csv %q", bufSize, rec, data, errString(gotErr), errString(wantErr))
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("buf %d, record %d of %q: %d fields, encoding/csv %d", bufSize, rec, data, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("buf %d, record %d of %q: field %d = %q, encoding/csv %q", bufSize, rec, data, i, got[i], want[i])
			}
		}
	}
}

func checkReadCSV(t *testing.T, data []byte, spec CSVSpec) {
	t.Helper()
	got, gotErr := ReadCSV(bytes.NewReader(data), spec)
	want, wantErr := oracleReadCSV(bytes.NewReader(data), spec)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("ReadCSV(%q): error %q, oracle %q", data, errString(gotErr), errString(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadCSV(%q) = %+v, oracle %+v", data, got, want)
	}
}

// checkStream drains a CSVStream on the given number of workers and
// piece size and its oracle side by side, comparing every chunk, error
// and Rows() count up to the first error or EOF.
func checkStream(t *testing.T, data []byte, spec CSVSpec, chunk, workers, piece int) {
	t.Helper()
	checkStreamFrom(t, data, func() io.Reader { return bytes.NewReader(data) }, spec, chunk, workers, piece)
}

// checkStreamFrom is checkStream over the readers src returns, each
// yielding data and then ending as src decides.
func checkStreamFrom(t *testing.T, data []byte, src func() io.Reader, spec CSVSpec, chunk, workers, piece int) {
	t.Helper()
	got, gotErr := newCSVStream(src(), spec, chunk, workers, piece)
	want, wantErr := newOracleStream(src(), spec, chunk)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("NewCSVStream(%q, chunk %d): error %q, oracle %q", data, chunk, errString(gotErr), errString(wantErr))
	}
	if wantErr != nil {
		return
	}
	for i := 0; ; i++ {
		g, gErr := got.Next()
		w, wErr := want.Next()
		if errString(gErr) != errString(wErr) {
			t.Fatalf("chunk %d of %q (size %d, %d workers, piece %d): error %q, oracle %q", i, data, chunk, workers, piece, errString(gErr), errString(wErr))
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("chunk %d of %q (size %d, %d workers, piece %d) = %+v, oracle %+v", i, data, chunk, workers, piece, g, w)
		}
		if got.Rows() != want.Rows() {
			t.Fatalf("after chunk %d of %q (size %d, %d workers, piece %d): Rows() = %d, oracle %d", i, data, chunk, workers, piece, got.Rows(), want.Rows())
		}
		if wErr != nil {
			return
		}
	}
}

// FuzzSplitCSV checks SplitCSV against one sequential read: for any
// bytes without a quoted newline after the header (the restriction
// SplitCSV documents), the shard streams read in shard order must
// return the sequential stream's rows, in order and value for value,
// and fail exactly when it fails, with the same error text — for every
// shard count.
func FuzzSplitCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if quotedNewline(data) {
			return
		}
		spec := decodeSpec()
		want, wantErr := drainRows(NewCSVStream(bytes.NewReader(data), spec, 1))
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 7} {
			s, err := SplitCSV(path, shards)
			if err != nil {
				if wantErr == nil {
					t.Fatalf("SplitCSV(%q, %d): %v; a sequential read succeeds", data, shards, err)
				}
				continue
			}
			var got []string
			var gotErr error
			for i := 0; i < s.Shards() && gotErr == nil; i++ {
				stream, closer, err := s.Open(i, spec, 1)
				var rows []string
				rows, gotErr = drainRows(stream, err)
				got = append(got, rows...)
				if closer != nil {
					closer.Close()
				}
			}
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("%d shards of %q: error %q, sequential %q", shards, data, errString(gotErr), errString(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards of %q: rows %q, sequential %q", shards, data, got, want)
			}
		}
	})
}

// quotedNewline reports whether a '\n' after data's header line lies
// inside quotes, the header ending at its first newline outside them.
func quotedNewline(data []byte) bool {
	end, _ := recordEnd(data, false)
	if end < 0 {
		return false
	}
	for _, line := range bytes.SplitAfter(data[end:], []byte{'\n'}) {
		if lengthNL(line) == 1 && oddQuotes(line) {
			return true
		}
	}
	return false
}

// drainRows reads s to its end or first error, rendering its rows
// with renderRows.
func drainRows(s *CSVStream, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	var rows []string
	for {
		ds, err := s.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, renderRows(ds)...)
	}
}
