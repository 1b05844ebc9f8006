package pipeline

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/model"
)

// ScanMinMax streams src once and returns the min-max scaling of its
// feature columns: per-column minima and ranges (max − min), in the
// form a model artifact records them.
func ScanMinMax(src Source) (*model.Scaling, error) {
	var mins, maxs []float64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, row := range chunk.Features {
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
	if mins == nil {
		return nil, errors.New("pipeline: empty stream")
	}
	ranges := make([]float64, len(mins))
	for j := range ranges {
		ranges[j] = maxs[j] - mins[j]
	}
	return &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}, nil
}

// Scaled returns a Source yielding src's chunks with scaling applied,
// or src itself when scaling is nil. The scaled rows are copies —
// sources may alias caller memory (SliceSource chunks share the
// underlying Dataset's rows), and src's rows are never written —
// carved from one fresh slab per chunk, so a chunk costs the same few
// allocations whatever its row count.
func Scaled(src Source, scaling *model.Scaling) Source {
	if scaling == nil {
		return src
	}
	return &scaledSource{src: src, scaling: scaling}
}

type scaledSource struct {
	src     Source
	scaling *model.Scaling
}

// Next implements Source.
func (s *scaledSource) Next() (*dataset.Dataset, error) {
	chunk, err := s.src.Next()
	if err != nil {
		return nil, err
	}
	dim := len(s.scaling.Mins)
	slab := make([]float64, len(chunk.Features)*dim)
	rows := make([][]float64, len(chunk.Features))
	for i, row := range chunk.Features {
		if len(row) != dim {
			return nil, fmt.Errorf("pipeline: row has %d features, scaling has %d", len(row), dim)
		}
		r := slab[i*dim : (i+1)*dim : (i+1)*dim]
		copy(r, row)
		s.scaling.Apply(r)
		rows[i] = r
	}
	scaled := *chunk
	scaled.Features = rows
	return &scaled, nil
}
