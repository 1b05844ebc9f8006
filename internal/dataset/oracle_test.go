package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file keeps the encoding/csv-based decoders ReadCSV and CSVStream
// were before the byte-level tokenizer replaced them. They are the
// oracle the tokenizer's tests and FuzzCSVDecode compare against: for
// any input, the production decoders must accept and reject the same
// bytes, with the same error messages, and return identical Datasets.

// oracleOpen reads the header and locates spec's columns.
func oracleOpen(r io.Reader, spec CSVSpec) (cr *csv.Reader, fIdx, cIdx, nIdx []int, err error) {
	cr = csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[strings.TrimSpace(h)] = i
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
	if fIdx, err = locate(spec.Features); err != nil {
		return nil, nil, nil, nil, err
	}
	if cIdx, err = locate(spec.CategoricalSensitive); err != nil {
		return nil, nil, nil, nil, err
	}
	if nIdx, err = locate(spec.NumericSensitive); err != nil {
		return nil, nil, nil, nil, err
	}
	return cr, fIdx, cIdx, nIdx, nil
}

func oracleReadCSV(r io.Reader, spec CSVSpec) (*Dataset, error) {
	cr, fIdx, cIdx, nIdx, err := oracleOpen(r, spec)
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
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line+1, err)
		}
		line++
		feats := make([]float64, len(fIdx))
		for i, j := range fIdx {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %q: %w", line, spec.Features[i], err)
			}
			feats[i] = v
		}
		cats := make([]string, len(cIdx))
		for i, j := range cIdx {
			cats[i] = strings.TrimSpace(rec[j])
		}
		nums := make([]float64, len(nIdx))
		for i, j := range nIdx {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %q: %w", line, spec.NumericSensitive[i], err)
			}
			nums[i] = v
		}
		b.Row(feats, cats, nums)
	}
	return b.Build()
}

// oracleStream is CSVStream as it was on encoding/csv.
type oracleStream struct {
	cr               *csv.Reader
	spec             CSVSpec
	chunk            int
	fIdx, cIdx, nIdx []int
	domains          []*DomainIndex
	line             int
	done             bool
}

func newOracleStream(r io.Reader, spec CSVSpec, chunkSize int) (*oracleStream, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	cr, fIdx, cIdx, nIdx, err := oracleOpen(r, spec)
	if err != nil {
		return nil, err
	}
	s := &oracleStream{cr: cr, spec: spec, chunk: chunkSize, fIdx: fIdx, cIdx: cIdx, nIdx: nIdx, line: 1}
	s.domains = make([]*DomainIndex, len(spec.CategoricalSensitive))
	for i := range s.domains {
		s.domains[i] = NewDomainIndex()
	}
	return s, nil
}

func (s *oracleStream) Next() (*Dataset, error) {
	if s.done {
		return nil, io.EOF
	}
	features := make([][]float64, 0, s.chunk)
	codes := make([][]int, len(s.cIdx))
	reals := make([][]float64, len(s.nIdx))
	for len(features) < s.chunk {
		rec, err := s.cr.Read()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", s.line+1, err)
		}
		s.line++
		row := make([]float64, len(s.fIdx))
		for i, j := range s.fIdx {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %q: %w", s.line, s.spec.Features[i], err)
			}
			row[i] = v
		}
		features = append(features, row)
		for i, j := range s.cIdx {
			codes[i] = append(codes[i], s.domains[i].Code(strings.TrimSpace(rec[j])))
		}
		for i, j := range s.nIdx {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %q: %w", s.line, s.spec.NumericSensitive[i], err)
			}
			reals[i] = append(reals[i], v)
		}
	}
	if len(features) == 0 {
		return nil, io.EOF
	}
	ds := &Dataset{FeatureNames: s.spec.Features, Features: features}
	for i, name := range s.spec.CategoricalSensitive {
		ds.Sensitive = append(ds.Sensitive, &SensitiveAttr{
			Name: name, Kind: Categorical,
			Values: append([]string(nil), s.domains[i].Values()...),
			Codes:  codes[i],
		})
	}
	for i, name := range s.spec.NumericSensitive {
		ds.Sensitive = append(ds.Sensitive, &SensitiveAttr{Name: name, Kind: Numeric, Reals: reals[i]})
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

func (s *oracleStream) Rows() int { return s.line - 1 }
