package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
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
// errors, and ReadCSV and CSVStream (at several chunk sizes) must
// return exactly what their encoding/csv-based oracles return.
func FuzzCSVDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTokenizer(t, data, bytes.NewReader(data), 1)
		checkTokenizer(t, data, iotest.OneByteReader(bytes.NewReader(data)), 7)
		checkTokenizer(t, data, bytes.NewReader(data), tokenBufSize)
		checkReadCSV(t, data, decodeSpec())
		for _, chunk := range []int{1, 2, 7, 4096} {
			checkStream(t, data, decodeSpec(), chunk)
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

// checkStream drains a CSVStream and its oracle side by side, comparing
// every chunk, error and Rows() count up to the first error or EOF.
func checkStream(t *testing.T, data []byte, spec CSVSpec, chunk int) {
	t.Helper()
	got, gotErr := NewCSVStream(bytes.NewReader(data), spec, chunk)
	want, wantErr := newOracleStream(bytes.NewReader(data), spec, chunk)
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
			t.Fatalf("chunk %d of %q (size %d): error %q, oracle %q", i, data, chunk, errString(gErr), errString(wErr))
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("chunk %d of %q (size %d) = %+v, oracle %+v", i, data, chunk, g, w)
		}
		if got.Rows() != want.Rows() {
			t.Fatalf("after chunk %d of %q (size %d): Rows() = %d, oracle %d", i, data, chunk, got.Rows(), want.Rows())
		}
		if wErr != nil {
			return
		}
	}
}
