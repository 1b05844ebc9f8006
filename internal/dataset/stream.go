package dataset

import (
	"fmt"
	"io"
)

// CSVStream reads a headed CSV source in bounded chunks, so arbitrarily
// large files can be summarized (internal/coreset.Stream) or scanned
// (second-pass metrics) without ever materializing more than chunkSize
// rows. It is the ingestion stage of the summarize-then-solve pipeline
// behind cmd/fairstream.
//
// Unlike ReadCSV — which sees all rows before encoding — a stream
// discovers categorical domains incrementally: codes are assigned in
// order of first appearance and are stable across chunks (the same
// string always maps to the same code), with each chunk's Values slice
// a copy of the domain as known at that point. Consumers that need
// cross-chunk consistency should therefore key on codes (stable) or
// value strings, not on domain cardinality, which can still grow.
// Declared domains (CSVSpec columns listed in a builder with fixed
// domains) are unnecessary here: the pipeline re-keys by value string.
//
// The rows of a chunk's Features share one []float64 slab per
// DefaultChunkSize rows, each row capped at its width so appending to
// it never touches its neighbour. A consumer that keeps a row beyond
// the chunk should copy it, as coreset.Stream.Add does, or it keeps
// the whole slab alive.
type CSVStream struct {
	c       *csvReader
	chunk   int
	nums    []float64 // the current record's numeric-sensitive cells
	domains []*DomainIndex
	done    bool
}

// DomainIndex accumulates one categorical domain incrementally: Code
// assigns stable integer codes in order of first appearance, the
// invariant every streaming consumer (CSVStream chunks, the pipeline
// summarizer) keys on.
type DomainIndex struct {
	values []string
	index  map[string]int
}

// NewDomainIndex returns an empty domain.
func NewDomainIndex() *DomainIndex {
	return &DomainIndex{index: map[string]int{}}
}

// NewDomainIndexFrom rebuilds a domain from a snapshot of its values in
// code order — the inverse of Values. A loaded model artifact uses this
// to resume stable code assignment where training left off: known
// values keep their training codes, unseen serving-time values are
// appended. Duplicate values in the snapshot are an error (codes would
// be ambiguous).
func NewDomainIndexFrom(values []string) (*DomainIndex, error) {
	d := &DomainIndex{
		values: append([]string(nil), values...),
		index:  make(map[string]int, len(values)),
	}
	for c, v := range d.values {
		if _, ok := d.index[v]; ok {
			return nil, fmt.Errorf("dataset: duplicate domain value %q", v)
		}
		d.index[v] = c
	}
	return d, nil
}

// Len returns the current domain cardinality.
func (d *DomainIndex) Len() int { return len(d.values) }

// Lookup returns v's code without assigning one, and whether it exists.
func (d *DomainIndex) Lookup(v string) (int, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Code returns v's stable code, assigning the next one on first sight.
func (d *DomainIndex) Code(v string) int {
	if c, ok := d.index[v]; ok {
		return c
	}
	c := len(d.values)
	d.values = append(d.values, v)
	d.index[v] = c
	return c
}

// codeBytes is Code for a value held as bytes. The lookup does not
// allocate, so only a first sighting copies the value into a string.
func (d *DomainIndex) codeBytes(v []byte) int {
	if c, ok := d.index[string(v)]; ok {
		return c
	}
	return d.Code(string(v))
}

// Values returns the domain in code order. The slice is the index's
// live backing store — callers that retain or mutate it must copy.
func (d *DomainIndex) Values() []string { return d.values }

// DefaultChunkSize is the CSVStream chunk size when the caller passes
// chunkSize <= 0.
const DefaultChunkSize = 4096

// NewCSVStream opens a chunked reader over a headed CSV source. It
// reads and validates the header immediately, so column errors surface
// before any chunk is requested.
func NewCSVStream(r io.Reader, spec CSVSpec, chunkSize int) (*CSVStream, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	c, err := openCSV(r, spec)
	if err != nil {
		return nil, err
	}
	s := &CSVStream{
		c:       c,
		chunk:   chunkSize,
		nums:    make([]float64, len(c.nIdx)),
		domains: make([]*DomainIndex, len(c.cIdx)),
	}
	for i := range s.domains {
		s.domains[i] = NewDomainIndex()
	}
	return s, nil
}

// Next returns the next chunk of up to chunkSize rows as a validated
// Dataset, or (nil, io.EOF) once the source is exhausted. Chunks share
// nothing with each other except the stable code assignment; feature
// rows and sensitive columns are freshly allocated per chunk.
func (s *CSVStream) Next() (*Dataset, error) {
	if s.done {
		return nil, io.EOF
	}
	spec := s.c.spec
	// Blocks of at most DefaultChunkSize rows: a default-sized chunk is
	// one slab, and a huge chunkSize is not allocated up front.
	block := min(s.chunk, DefaultChunkSize)
	slab := rowSlab[float64]{width: len(s.c.fIdx), rows: block}
	features := make([][]float64, 0, s.chunk)
	codes := make([][]int, len(s.c.cIdx))
	for i := range codes {
		codes[i] = make([]int, 0, block)
	}
	reals := make([][]float64, len(s.c.nIdx))
	for i := range reals {
		reals[i] = make([]float64, 0, block)
	}
	for len(features) < s.chunk {
		row := slab.row()
		cats, err := s.c.read(row, s.nums)
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		features = append(features, row)
		for i, v := range cats {
			codes[i] = append(codes[i], s.domains[i].codeBytes(v))
		}
		for i, v := range s.nums {
			reals[i] = append(reals[i], v)
		}
	}
	if len(features) == 0 {
		return nil, io.EOF
	}
	ds := &Dataset{
		FeatureNames: spec.Features,
		Features:     features,
	}
	for i, name := range spec.CategoricalSensitive {
		ds.Sensitive = append(ds.Sensitive, &SensitiveAttr{
			Name:   name,
			Kind:   Categorical,
			Values: append([]string(nil), s.domains[i].Values()...),
			Codes:  codes[i],
		})
	}
	for i, name := range spec.NumericSensitive {
		ds.Sensitive = append(ds.Sensitive, &SensitiveAttr{
			Name:  name,
			Kind:  Numeric,
			Reals: reals[i],
		})
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Rows returns how many data rows have been decoded so far.
func (s *CSVStream) Rows() int { return s.c.line - 1 }
