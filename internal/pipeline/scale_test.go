package pipeline

import (
	"io"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/testfix"
)

// TestScanMinMaxMatchesInMemory: the streaming scan finds the minima
// and ranges the in-memory normalization uses, bit for bit, whatever
// the chunking; an empty stream is an error.
func TestScanMinMaxMatchesInMemory(t *testing.T) {
	ds := testfix.Adult(3, 900)
	wantMins, wantRanges := testfix.Adult(3, 900).MinMaxNormalize()
	for _, chunk := range []int{1, 7, 256, 900} {
		sc, err := ScanMinMax(NewSliceSource(ds, chunk))
		if err != nil {
			t.Fatal(err)
		}
		if sc.Kind != "minmax" || len(sc.Mins) != ds.Dim() || len(sc.Ranges) != ds.Dim() {
			t.Fatalf("chunk %d: scaling %+v", chunk, sc)
		}
		for j := range wantMins {
			if math.Float64bits(sc.Mins[j]) != math.Float64bits(wantMins[j]) ||
				math.Float64bits(sc.Ranges[j]) != math.Float64bits(wantRanges[j]) {
				t.Errorf("chunk %d col %d: min %v range %v, want %v %v", chunk, j, sc.Mins[j], sc.Ranges[j], wantMins[j], wantRanges[j])
			}
		}
	}
	empty := &dataset.Dataset{FeatureNames: ds.FeatureNames}
	if _, err := ScanMinMax(NewSliceSource(empty, 4)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestScaledSource: chunks arrive scaled exactly as model.Scaling.Apply
// scales a row, the source's rows are never written (a second pass
// over the same dataset sees raw values), a row of the wrong width is
// an error, and a nil scaling passes the source through untouched.
func TestScaledSource(t *testing.T) {
	ds := testfix.Adult(5, 300)
	raw := make([][]float64, ds.N())
	for i, row := range ds.Features {
		raw[i] = append([]float64(nil), row...)
	}
	sc, err := ScanMinMax(NewSliceSource(ds, 64))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		src := Scaled(NewSliceSource(ds, 64), sc)
		i := 0
		for {
			chunk, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range chunk.Features {
				want := append([]float64(nil), raw[i]...)
				sc.Apply(want)
				for j := range want {
					if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
						t.Fatalf("pass %d row %d col %d: %v, want %v", pass, i, j, row[j], want[j])
					}
				}
				i++
			}
		}
		if i != ds.N() {
			t.Fatalf("pass %d: %d rows, want %d", pass, i, ds.N())
		}
	}
	for i, row := range ds.Features {
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(raw[i][j]) {
				t.Fatalf("source row %d col %d written: %v, was %v", i, j, row[j], raw[i][j])
			}
		}
	}

	narrow := &model.Scaling{Kind: "minmax", Mins: sc.Mins[:1], Ranges: sc.Ranges[:1]}
	if _, err := Scaled(NewSliceSource(ds, 64), narrow).Next(); err == nil {
		t.Error("row wider than the scaling accepted")
	}
	plain := NewSliceSource(ds, 64)
	if Scaled(plain, nil) != Source(plain) {
		t.Error("nil scaling wrapped the source")
	}
}

// repeatSource hands out the same chunk forever.
type repeatSource struct{ chunk *dataset.Dataset }

func (s repeatSource) Next() (*dataset.Dataset, error) { return s.chunk, nil }

// TestScaledSourceAllocsPerChunk: scaling a chunk costs a fixed number
// of allocations (the row slab, the row headers, the chunk header),
// independent of its row count.
func TestScaledSourceAllocsPerChunk(t *testing.T) {
	ds := testfix.Adult(5, 1024)
	sc, err := ScanMinMax(NewSliceSource(ds, 0))
	if err != nil {
		t.Fatal(err)
	}
	var per []float64
	for _, rows := range []int{16, 1024} {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = i
		}
		src := Scaled(repeatSource{ds.Subset(idx)}, sc)
		per = append(per, testing.AllocsPerRun(50, func() {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if per[0] != per[1] || per[1] > 3 {
		t.Errorf("allocs per chunk = %v for 16 and 1024 rows, want the same and <= 3", per)
	}
}

// TestScanMinMaxShardedMatchesScan: scanning contiguous row ranges on
// any number of workers and merging their bounds gives one whole scan's
// scaling bit for bit, signed-zero ties included; ranges with no rows
// are skipped, and no rows at all is an error.
func TestScanMinMaxShardedMatchesScan(t *testing.T) {
	ds := testfix.Adult(9, 700)
	for i, row := range ds.Features {
		if i%5 == 0 {
			row[0] = math.Copysign(0, float64(i%2)-0.5) // -0 and +0 in turn
		}
	}
	want, err := ScanMinMax(NewSliceSource(ds, 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 7, 701} {
		for _, workers := range []int{0, 1, 2, -1} {
			got, err := ScanMinMaxSharded(SliceShards(ds, shards, 32), workers)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Mins {
				if math.Float64bits(got.Mins[j]) != math.Float64bits(want.Mins[j]) ||
					math.Float64bits(got.Ranges[j]) != math.Float64bits(want.Ranges[j]) {
					t.Fatalf("%d shards, %d workers, col %d: min %v range %v, want %v %v",
						shards, workers, j, got.Mins[j], got.Ranges[j], want.Mins[j], want.Ranges[j])
				}
			}
		}
	}
	empty := &dataset.Dataset{FeatureNames: ds.FeatureNames}
	if _, err := ScanMinMaxSharded(SliceShards(empty, 3, 4), 0); err == nil {
		t.Error("sources without rows accepted")
	}
}
