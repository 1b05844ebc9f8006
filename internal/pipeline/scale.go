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
	return ScanMinMaxSharded([]Source{src}, 1)
}

// ScanMinMaxSharded is ScanMinMax over the rows of sources taken in
// order — the byte ranges of one dataset.SplitCSV file, say — scanning
// the sources on workers goroutines (0 one per source, -1 GOMAXPROCS,
// as ShardedConfig.Workers). Each source yields its own minima and
// maxima, merged in source order; a minimum or maximum is exact, so
// the merged scaling equals one scan's bit for bit. Merging needs each
// source's maxima: min + range need not give back the max in float64.
func ScanMinMaxSharded(sources []Source, workers int) (*model.Scaling, error) {
	mins := make([][]float64, len(sources))
	maxs := make([][]float64, len(sources))
	err := forEachShard(len(sources), workers, func(i int) (err error) {
		mins[i], maxs[i], err = scanBounds(sources[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var lo, hi []float64
	for i := range sources {
		if mins[i] == nil {
			continue
		}
		if lo == nil {
			lo, hi = mins[i], maxs[i]
			continue
		}
		if len(mins[i]) != len(lo) {
			return nil, fmt.Errorf("pipeline: sources disagree: %d features vs %d", len(mins[i]), len(lo))
		}
		foldBounds(lo, hi, mins[i], maxs[i])
	}
	if lo == nil {
		return nil, errors.New("pipeline: empty stream")
	}
	ranges := make([]float64, len(lo))
	for j := range ranges {
		ranges[j] = hi[j] - lo[j]
	}
	return &model.Scaling{Kind: "minmax", Mins: lo, Ranges: ranges}, nil
}

// scanBounds streams src once and returns its per-column minima and
// maxima, nil for a stream without rows.
func scanBounds(src Source) (mins, maxs []float64, err error) {
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			return mins, maxs, nil
		}
		if err != nil {
			return nil, nil, err
		}
		for _, row := range chunk.Features {
			if mins == nil {
				mins = append([]float64(nil), row...)
				maxs = append([]float64(nil), row...)
			}
			if len(row) != len(mins) {
				return nil, nil, fmt.Errorf("pipeline: row has %d features, want %d", len(row), len(mins))
			}
			foldBounds(mins, maxs, row, row)
		}
	}
}

// foldBounds lowers mins to lo and raises maxs to hi, column by column.
func foldBounds(mins, maxs, lo, hi []float64) {
	for j := range mins {
		if lo[j] < mins[j] {
			mins[j] = lo[j]
		}
		if hi[j] > maxs[j] {
			maxs[j] = hi[j]
		}
	}
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
