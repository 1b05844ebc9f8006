package dataset_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// adultSpec reads every column of the synthetic Adult table: its eight
// features and five categorical sensitive attributes.
func adultSpec() dataset.CSVSpec {
	return dataset.CSVSpec{Features: adult.FeatureNames, CategoricalSensitive: adult.SensitiveNames}
}

// adultCSVSource returns a reader that yields a header of the synthetic
// Adult table, then its rows over and over, without end.
func adultCSVSource(tb testing.TB) io.Reader {
	tb.Helper()
	ds, err := adult.Generate(adult.Config{Seed: 1, Rows: 20000})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		tb.Fatal(err)
	}
	header, body, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	return io.MultiReader(bytes.NewReader(append(header, '\n')), &cycle{body: body})
}

// cycle reads body repeatedly, forever.
type cycle struct {
	body []byte
	off  int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.body[c.off:])
	c.off = (c.off + n) % len(c.body)
	return n, nil
}

// TestCSVStreamAllocs pins the decoder's allocation contract: one
// 4096-row chunk costs a bounded number of allocations per column
// (the chunk's slab, code columns, domain copies and Dataset), never
// one or more per row.
func TestCSVStreamAllocs(t *testing.T) {
	spec := adultSpec()
	s, err := dataset.NewCSVStream(adultCSVSource(t), spec, dataset.DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun's warm-up call sees every categorical value, so the
	// measured chunks pay no first-sighting string copies.
	allocs := testing.AllocsPerRun(5, func() {
		chunk, err := s.Next()
		if err != nil || chunk.N() != dataset.DefaultChunkSize {
			t.Fatalf("Next: %v", err)
		}
	})
	columns := len(spec.Features) + len(spec.CategoricalSensitive)
	if limit := float64(4 * columns); allocs > limit {
		t.Errorf("one %d-row chunk made %.0f allocations, want at most %.0f (O(columns), not O(rows))",
			dataset.DefaultChunkSize, allocs, limit)
	}
}

// BenchmarkCSVStream decodes 4096-row chunks of the synthetic Adult
// table (8 features, 5 categorical sensitive columns) on one worker and
// on GOMAXPROCS workers: one op is one Next. It reports ns/row
// alongside allocs/op.
func BenchmarkCSVStream(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchCSVStream(b, 1) })
	b.Run("workers=GOMAXPROCS", func(b *testing.B) { benchCSVStream(b, runtime.GOMAXPROCS(0)) })
}

func benchCSVStream(b *testing.B, workers int) {
	s, err := dataset.NewCSVStreamWorkers(adultCSVSource(b), adultSpec(), dataset.DefaultChunkSize, workers)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Next(); err != nil { // first sightings of every value
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dataset.DefaultChunkSize), "ns/row")
}

// BenchmarkSpillReplay reads back 4096-row chunks of the synthetic
// Adult table that a pipeline.Spill recorded from a CSVStream: what
// each pass after fairstream's first pays per chunk instead of
// BenchmarkCSVStream's decode. One op is one Next of a replay, which
// starts over at the spill's end; it reports ns/row alongside
// allocs/op.
func BenchmarkSpillReplay(b *testing.B) {
	const chunks = 16
	s, err := dataset.NewCSVStream(adultCSVSource(b), adultSpec(), dataset.DefaultChunkSize)
	if err != nil {
		b.Fatal(err)
	}
	spill, err := pipeline.NewSpill(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer spill.Close()
	tee := spill.Tee(&firstChunks{src: s, left: chunks})
	for {
		if _, err := tee.Next(); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	replay, err := spill.Replay()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk, err := replay.Next()
		if err == io.EOF {
			if replay, err = spill.Replay(); err == nil {
				chunk, err = replay.Next()
			}
		}
		if err != nil || chunk.N() != dataset.DefaultChunkSize {
			b.Fatalf("Next: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dataset.DefaultChunkSize), "ns/row")
}

// firstChunks yields the first left chunks of src, then io.EOF.
type firstChunks struct {
	src  pipeline.Source
	left int
}

func (f *firstChunks) Next() (*dataset.Dataset, error) {
	if f.left == 0 {
		return nil, io.EOF
	}
	f.left--
	return f.src.Next()
}
