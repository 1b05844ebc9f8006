package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/numparse"
)

// CSVSpec tells ReadCSV how to interpret columns of a headed CSV file.
// Columns not listed in any of the three sets are ignored.
type CSVSpec struct {
	// Features are the names of numeric non-sensitive columns.
	Features []string
	// CategoricalSensitive are the names of categorical sensitive columns.
	CategoricalSensitive []string
	// NumericSensitive are the names of numeric sensitive columns.
	NumericSensitive []string
}

// csvReader is the front half both ReadCSV and CSVStream share: it
// reads the header, locates spec's columns in it, and decodes each
// record's cells through the byte-level tokenizer.
type csvReader struct {
	tok              *tokenizer
	spec             CSVSpec
	fIdx, cIdx, nIdx []int
	cats             [][]byte // the current record's categorical cells
	line             int      // records read, header included
}

// openCSV reads r's header and locates spec's columns in it, so column
// errors surface before any row is read.
func openCSV(r io.Reader, spec CSVSpec) (*csvReader, error) {
	tok := newTokenizer(r, tokenBufSize)
	header, err := tok.next()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[string(bytes.TrimSpace(h))] = i
	}
	locate := func(names []string) ([]int, error) {
		idx := make([]int, len(names))
		for i, name := range names {
			j, ok := col[name]
			if !ok {
				return nil, fmt.Errorf("dataset: CSV is missing column %q", name)
			}
			idx[i] = j
		}
		return idx, nil
	}
	c := &csvReader{tok: tok, spec: spec, line: 1}
	if c.fIdx, err = locate(spec.Features); err != nil {
		return nil, err
	}
	if c.cIdx, err = locate(spec.CategoricalSensitive); err != nil {
		return nil, err
	}
	if c.nIdx, err = locate(spec.NumericSensitive); err != nil {
		return nil, err
	}
	c.cats = make([][]byte, len(c.cIdx))
	return c, nil
}

// recordError reports a record that failed to decode. line is the
// record's number, the header's being 1; column names the cell that
// failed to parse, or is empty when the tokenizer rejected the record.
type recordError struct {
	line   int
	column string
	err    error
}

func (e *recordError) Error() string {
	if e.column == "" {
		return fmt.Sprintf("dataset: reading CSV line %d: %v", e.line, e.err)
	}
	return fmt.Sprintf("dataset: line %d column %q: %v", e.line, e.column, e.err)
}

func (e *recordError) Unwrap() error { return e.err }

// read decodes the next record: its feature and numeric-sensitive cells
// into feats and nums, and its categorical cells, trimmed, into the
// returned slices, which stay valid until the next call. It returns
// io.EOF once the input is exhausted, and a *recordError for a record
// it cannot decode.
func (c *csvReader) read(feats, nums []float64) ([][]byte, error) {
	rec, err := c.tok.next()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, &recordError{line: c.line + 1, err: err}
	}
	c.line++
	for i, j := range c.fIdx {
		// numparse converts plain decimals without strconv's second
		// scan and hands everything else to strconv, so values and
		// errors are strconv's own.
		v, err := numparse.ParseFloat(trimCell(rec[j]))
		if err != nil {
			return nil, &recordError{line: c.line, column: c.spec.Features[i], err: err}
		}
		feats[i] = v
	}
	for i, j := range c.cIdx {
		c.cats[i] = trimCell(rec[j])
	}
	for i, j := range c.nIdx {
		v, err := numparse.ParseFloat(trimCell(rec[j]))
		if err != nil {
			return nil, &recordError{line: c.line, column: c.spec.NumericSensitive[i], err: err}
		}
		nums[i] = v
	}
	return c.cats, nil
}

// trimCell trims the white space around a cell as bytes.TrimSpace
// does, skipping the scan for a cell that starts and ends with a
// non-space ASCII byte — almost every cell.
func trimCell(b []byte) []byte {
	if n := len(b); n > 0 && b[0] > ' ' && b[0] < utf8.RuneSelf && b[n-1] > ' ' && b[n-1] < utf8.RuneSelf {
		return b
	}
	return bytes.TrimSpace(b)
}

// rowSlab hands out fixed-width rows carved from shared blocks of rows,
// so decoding a table costs one allocation per block, not one per row.
// Rows are capped at their width: appending to one never writes into
// its neighbour.
type rowSlab[T any] struct {
	width, rows int
	free        []T
}

// row returns the next row. A zero-width row is empty but non-nil, as
// make would return it.
func (s *rowSlab[T]) row() []T {
	if s.free == nil || len(s.free) < s.width {
		s.free = make([]T, s.width*s.rows)
	}
	r := s.free[:s.width:s.width]
	s.free = s.free[s.width:]
	return r
}

// ReadCSV parses a headed CSV stream into a Dataset according to spec.
// Feature and numeric-sensitive cells must parse as floats; whitespace
// around cells is trimmed.
func ReadCSV(r io.Reader, spec CSVSpec) (*Dataset, error) {
	c, err := openCSV(r, spec)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(spec.Features...)
	for _, name := range spec.CategoricalSensitive {
		b.AddCategoricalSensitive(name)
	}
	for _, name := range spec.NumericSensitive {
		b.AddNumericSensitive(name)
	}
	// Each distinct categorical value is kept as one string, interned
	// by a domain index, whatever number of rows repeat it.
	interned := make([]*DomainIndex, len(c.cIdx))
	for i := range interned {
		interned[i] = NewDomainIndex()
	}
	featRows := rowSlab[float64]{width: len(c.fIdx), rows: DefaultChunkSize}
	catRows := rowSlab[string]{width: len(c.cIdx), rows: DefaultChunkSize}
	numRows := rowSlab[float64]{width: len(c.nIdx), rows: DefaultChunkSize}
	for {
		feats, nums := featRows.row(), numRows.row()
		cells, err := c.read(feats, nums)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		cats := catRows.row()
		for i, v := range cells {
			code := interned[i].codeBytes(v)
			cats[i] = interned[i].Values()[code]
		}
		b.Row(feats, cats, nums)
	}
	return b.Build()
}

// WriteCSV serializes a Dataset as headed CSV: feature columns first,
// then sensitive columns (categorical values written as strings).
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := append([]string(nil), d.FeatureNames...)
	if len(header) == 0 {
		for j := 0; j < d.Dim(); j++ {
			header = append(header, fmt.Sprintf("f%d", j))
		}
	}
	for _, s := range d.Sensitive {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < d.N(); i++ {
		rec := make([]string, 0, len(header))
		for _, v := range d.Features[i] {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		for _, s := range d.Sensitive {
			if s.Kind == Categorical {
				rec = append(rec, s.Values[s.Codes[i]])
			} else {
				rec = append(rec, strconv.FormatFloat(s.Reals[i], 'g', -1, 64))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
