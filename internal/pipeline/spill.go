package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/dataset"
)

// Spill keeps the chunks of one pass over a Source in a temporary file,
// so that later passes replay them instead of decoding the input again.
// Tee wraps the source of the first pass and writes every chunk it
// hands on; Replay then reads them back as a Source whose chunks equal
// the originals bit for bit: the feature rows as float64 bits, the
// categorical codes and each chunk's Values snapshot, the numeric
// sensitive values, and the row count. A replay ends with what the
// source returned after its last chunk: io.EOF, or the source's error.
//
// Unlike a CSVStream's, a replayed chunk's feature rows and sensitive
// columns live in buffers the replay reuses: they hold until the next
// Next, and a consumer that keeps them must copy them. The pipeline's
// consumers keep none: Summarizer.Add copies the rows it retains, and
// Scaled, ScanMinMax and Evaluate keep nothing. A replay runs about
// 25 times faster than a decode; with a fresh chunk per Next, its
// garbage let fairstream's peak RSS on the Adult workload spike from
// ~10 MB to as much as 22 MB in some runs, and reuse removed the
// spikes.
//
// The file is created in a directory (os.TempDir() for "") and its name
// is removed at once, so it lives exactly as long as the open handle: a
// process that exits, fails or is killed leaves nothing on disk. Records
// stream to and from the file through one fixed spillBuf-byte buffer on
// each side, grown only for a single row or value larger than it.
//
// A failed write does not fail the pass: Tee still hands every chunk
// on, and Err reports that the spill is unusable, so the caller can
// read its input again instead. Schema, the column names and kinds, is
// held in memory; a chunk that changes it, or whose domain is not an
// extension of the previous chunk's, makes the spill unusable too.
//
// On disk a chunk is one little-endian record:
//
//	u64 body length   u32 rows   u32 dim
//	per categorical attribute: u32 domain size, then each value new
//	    since the previous chunk as u32 length + bytes
//	rows·dim feature bits (u64)
//	per attribute, rows codes (u32) or numeric values (u64 bits)
//
// A Spill is written by one goroutine and replayed after the pass that
// writes it has ended.
type Spill struct {
	f    *os.File
	size int64 // bytes written
	err  error // the first failure; the spill is unusable once set
	end  error // what the source returned after its last chunk; nil until then

	// Schema, fixed by the first chunk.
	featureNames []string
	names        []string
	kinds        []dataset.Kind
	domains      [][]string // per categorical attribute, the values written so far

	w recordWriter
}

// spillBuf is the size of the buffer records pass through on each side
// of a spill: a few rows of any realistic width, and a small fraction
// of a 4096-row chunk's record (~300 KB for the Adult table).
const spillBuf = 64 << 10

// NewSpill creates an empty spill file in dir (os.TempDir() for "") and
// removes its name, so the file is reclaimed when the Spill is closed
// or the process ends.
func NewSpill(dir string) (*Spill, error) {
	f, err := os.CreateTemp(dir, "pipeline-spill-*")
	if err != nil {
		return nil, fmt.Errorf("pipeline: spill: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close() //fairvet:ignore errflow -- nothing was written; the unlink error wins
		return nil, fmt.Errorf("pipeline: spill: %w", err)
	}
	return &Spill{f: f, w: recordWriter{f: f}}, nil
}

// Close releases the file, and with it the disk space.
func (s *Spill) Close() error { return s.f.Close() }

// Err reports why the spill cannot be replayed: a failed write, a
// chunk it could not record, or a pass that has not reached its end.
// It is nil once the teed source has ended with every chunk written.
func (s *Spill) Err() error {
	if s.err != nil {
		return s.err
	}
	if s.end == nil {
		return errors.New("pipeline: spill: the pass did not reach the end of its source")
	}
	return s.w.err
}

// Tee returns a Source that hands on src's chunks and errors unchanged
// and writes each chunk to the spill.
func (s *Spill) Tee(src Source) Source { return &teeSource{src: src, spill: s} }

type teeSource struct {
	src   Source
	spill *Spill
}

// Next implements Source.
func (t *teeSource) Next() (*dataset.Dataset, error) {
	chunk, err := t.src.Next()
	s := t.spill
	switch {
	case err != nil:
		if s.end == nil {
			s.end = err
			s.w.flush()
			s.w.buf = nil
		}
	case s.err == nil && s.end == nil:
		s.err = s.write(chunk)
	}
	return chunk, err
}

// write appends chunk's record to the file.
func (s *Spill) write(chunk *dataset.Dataset) error {
	if err := s.checkSchema(chunk); err != nil {
		return err
	}
	rows, dim := chunk.N(), chunk.Dim()
	if uint64(rows) > math.MaxUint32 || uint64(dim) > math.MaxUint32 {
		return fmt.Errorf("pipeline: spill: a %d×%d chunk is too large", rows, dim)
	}
	size := 8 + rows*dim*8
	for ai, attr := range chunk.Sensitive {
		if attr.Kind == dataset.Numeric {
			size += rows * 8
			continue
		}
		size += 4 + rows*4
		for _, v := range attr.Values[len(s.domains[ai]):] {
			size += 4 + len(v)
		}
	}
	w := &s.w
	w.room(16)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(size))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(rows))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(dim))
	for ai, attr := range chunk.Sensitive {
		if attr.Kind != dataset.Categorical {
			continue
		}
		w.room(4)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(attr.Values)))
		for _, v := range attr.Values[len(s.domains[ai]):] {
			w.room(4 + len(v))
			w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(v)))
			w.buf = append(w.buf, v...)
		}
		s.domains[ai] = append(s.domains[ai], attr.Values[len(s.domains[ai]):]...)
	}
	for _, row := range chunk.Features {
		if len(row) != dim {
			return fmt.Errorf("pipeline: spill: a row has %d features, want %d", len(row), dim)
		}
		w.room(8 * dim)
		for _, v := range row {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
		}
	}
	for _, attr := range chunk.Sensitive {
		if attr.Kind == dataset.Numeric {
			if len(attr.Reals) != rows {
				return fmt.Errorf("pipeline: spill: attribute %q has %d values for %d rows", attr.Name, len(attr.Reals), rows)
			}
			for _, v := range attr.Reals {
				w.room(8)
				w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
			}
			continue
		}
		if len(attr.Codes) != rows {
			return fmt.Errorf("pipeline: spill: attribute %q has %d codes for %d rows", attr.Name, len(attr.Codes), rows)
		}
		for _, c := range attr.Codes {
			if c < 0 || c >= len(attr.Values) {
				return fmt.Errorf("pipeline: spill: attribute %q code %d out of domain [0,%d)", attr.Name, c, len(attr.Values))
			}
			w.room(4)
			w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(c))
		}
	}
	return w.err
}

// recordWriter appends records to a file through one buffer, writing it
// out whenever the next field would not fit. The first failed write
// sticks; the bytes after it are dropped.
type recordWriter struct {
	f   *os.File
	buf []byte
	n   int64 // bytes written to f
	err error
}

// room makes space for n more bytes in buf.
func (w *recordWriter) room(n int) {
	if len(w.buf)+n <= cap(w.buf) {
		return
	}
	w.flush()
	if n > cap(w.buf) {
		w.buf = make([]byte, 0, max(n, spillBuf))
	}
}

// flush writes buf out and empties it.
func (w *recordWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		w.n += int64(n)
		if err != nil {
			w.err = fmt.Errorf("pipeline: spill: %w", err)
		}
	}
	w.buf = w.buf[:0]
}

// checkSchema fixes the schema on the first chunk and checks every
// later one against it: the same feature names and attributes, and
// each categorical domain an extension of the one written so far.
func (s *Spill) checkSchema(chunk *dataset.Dataset) error {
	if s.domains == nil {
		s.featureNames = chunk.FeatureNames
		s.domains = make([][]string, len(chunk.Sensitive))
		for _, attr := range chunk.Sensitive {
			s.names = append(s.names, attr.Name)
			s.kinds = append(s.kinds, attr.Kind)
		}
	}
	if !slices.Equal(chunk.FeatureNames, s.featureNames) {
		return fmt.Errorf("pipeline: spill: feature names changed from %v to %v", s.featureNames, chunk.FeatureNames)
	}
	if len(chunk.Sensitive) != len(s.names) {
		return fmt.Errorf("pipeline: spill: %d sensitive attributes, want %d", len(chunk.Sensitive), len(s.names))
	}
	for ai, attr := range chunk.Sensitive {
		if attr.Name != s.names[ai] || attr.Kind != s.kinds[ai] {
			return fmt.Errorf("pipeline: spill: attribute %d is %s/%s, want %s/%s", ai, attr.Name, attr.Kind, s.names[ai], s.kinds[ai])
		}
		if attr.Kind == dataset.Categorical {
			known := s.domains[ai]
			if len(attr.Values) < len(known) || !slices.Equal(attr.Values[:len(known)], known) {
				return fmt.Errorf("pipeline: spill: the domain of %q is not an extension of the previous chunk's", attr.Name)
			}
			if uint64(len(attr.Values)) > math.MaxUint32 {
				return fmt.Errorf("pipeline: spill: the domain of %q is too large", attr.Name)
			}
		}
	}
	return nil
}

// Replay returns a Source reading the spilled chunks from the start,
// or Err's reason when the spill is unusable. Each call starts a new,
// independent reader; every one shares the Spill's file, which must
// stay open while it is read.
func (s *Spill) Replay() (Source, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	return &replaySource{
		spill:   s,
		r:       recordReader{r: io.NewSectionReader(s.f, 0, s.w.n), end: s.w.n},
		domains: make([][]string, len(s.names)),
	}, nil
}

type replaySource struct {
	spill   *Spill
	r       recordReader
	domains [][]string // per categorical attribute, the values read so far
	err     error      // the spilled end once reached, or a read failure

	// Reused from chunk to chunk: the decoded rows and columns the
	// chunks share.
	slab  []float64
	rows  [][]float64
	codes [][]int
	reals [][]float64
}

// Next implements Source.
func (r *replaySource) Next() (*dataset.Dataset, error) {
	if r.err != nil {
		return nil, r.err
	}
	chunk, err := r.read()
	if err != nil {
		r.err = err
		r.r.buf, r.slab, r.rows, r.codes, r.reals = nil, nil, nil, nil, nil
		return nil, err
	}
	return chunk, nil
}

// read decodes the next record, or returns the spilled end after the
// last one.
func (r *replaySource) read() (*dataset.Dataset, error) {
	rr := &r.r
	start := rr.pos()
	if start == rr.end {
		return nil, r.spill.end
	}
	head := rr.take(16)
	if head == nil {
		return nil, rr.failure()
	}
	size := binary.LittleEndian.Uint64(head)
	rows, dim := int(binary.LittleEndian.Uint32(head[8:])), int(binary.LittleEndian.Uint32(head[12:]))
	if uint64(rows)*uint64(dim+len(r.domains))*4 > size {
		return nil, fmt.Errorf("pipeline: spill replay: a %d×%d chunk in a %d-byte record", rows, dim, size)
	}
	s := r.spill
	if r.codes == nil {
		r.codes = make([][]int, len(s.names))
		r.reals = make([][]float64, len(s.names))
	}
	ds := &dataset.Dataset{FeatureNames: s.featureNames}
	values := make([][]string, len(s.names))
	for ai, kind := range s.kinds {
		if kind != dataset.Categorical {
			continue
		}
		n := int(rr.u32())
		for len(r.domains[ai]) < n && rr.err == nil {
			r.domains[ai] = append(r.domains[ai], string(rr.take(int(rr.u32()))))
		}
		if rr.err != nil {
			return nil, rr.failure()
		}
		if n < len(r.domains[ai]) {
			return nil, fmt.Errorf("pipeline: spill replay: the domain of %q shrank", s.names[ai])
		}
		// The domain only ever grows at its end, so a capped prefix is
		// a snapshot nothing will change.
		values[ai] = r.domains[ai][:n:n]
	}
	if rr.err == nil {
		r.slab = slices.Grow(r.slab[:0], rows*dim)[:rows*dim]
		rr.floats(r.slab)
		r.rows = slices.Grow(r.rows[:0], rows)[:rows]
		for i := range r.rows {
			r.rows[i] = r.slab[i*dim : (i+1)*dim : (i+1)*dim]
		}
		ds.Features = r.rows
	}
	for ai, kind := range s.kinds {
		attr := &dataset.SensitiveAttr{Name: s.names[ai], Kind: kind}
		if kind == dataset.Numeric {
			r.reals[ai] = slices.Grow(r.reals[ai][:0], rows)[:rows]
			rr.floats(r.reals[ai])
			attr.Reals = r.reals[ai]
		} else {
			r.codes[ai] = slices.Grow(r.codes[ai][:0], rows)[:rows]
			rr.codes(r.codes[ai])
			attr.Codes, attr.Values = r.codes[ai], values[ai]
		}
		ds.Sensitive = append(ds.Sensitive, attr)
	}
	if rr.err == nil && uint64(rr.pos()-start) != 8+size {
		return nil, fmt.Errorf("pipeline: spill replay: a %d-byte record holds %d bytes", size, rr.pos()-start-8)
	}
	if rr.err != nil {
		return nil, rr.failure()
	}
	return ds, nil
}

// recordReader reads a spill's records through one buffer, refilled by
// ReadAt. The first short or failed read sticks.
type recordReader struct {
	r   io.ReaderAt
	off int64  // where the next refill reads
	end int64  // the spill's size
	buf []byte // the buffer; b is its unread part
	b   []byte
	err error
}

// pos returns the spill offset of the next unread byte.
func (rr *recordReader) pos() int64 { return rr.off - int64(len(rr.b)) }

// failure returns the sticky error as a replay error.
func (rr *recordReader) failure() error {
	return fmt.Errorf("pipeline: spill replay: %w", rr.err)
}

// take returns the next n bytes, refilling the buffer as needed, or nil
// once the spill has fewer left.
func (rr *recordReader) take(n int) []byte {
	if rr.err == nil && n > len(rr.b) {
		rr.fill(n)
	}
	if rr.err != nil {
		return nil
	}
	v := rr.b[:n:n]
	rr.b = rr.b[n:]
	return v
}

// fill moves the unread bytes to the buffer's front and reads behind
// them until at least n bytes are unread.
func (rr *recordReader) fill(n int) {
	if n < 0 || int64(n-len(rr.b)) > rr.end-rr.off {
		rr.err = errShortRecord
		return
	}
	if n > cap(rr.buf) || rr.buf == nil {
		rr.buf = append(make([]byte, 0, max(n, spillBuf)), rr.b...)
	} else {
		rr.buf = rr.buf[:copy(rr.buf[:cap(rr.buf)], rr.b)]
	}
	k, err := rr.r.ReadAt(rr.buf[len(rr.buf):cap(rr.buf)][:min(int64(cap(rr.buf)-len(rr.buf)), rr.end-rr.off)], rr.off)
	rr.off += int64(k)
	rr.b = rr.buf[:len(rr.buf)+k]
	switch {
	case err != nil && err != io.EOF && len(rr.b) < n:
		rr.err = err
	case len(rr.b) < n:
		rr.err = errShortRecord // the spill ends before n bytes
	}
}

func (rr *recordReader) u32() uint32 {
	if b := rr.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// floats decodes len(dst) float64 bit patterns, a buffer at a time.
func (rr *recordReader) floats(dst []float64) {
	for i := 0; i < len(dst) && rr.err == nil; {
		k := min(len(dst)-i, max(len(rr.b), spillBuf)/8)
		b := rr.take(8 * k)
		for j := 0; j < len(b); j += 8 {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[j:]))
			i++
		}
	}
}

// codes decodes len(dst) u32 codes, a buffer at a time.
func (rr *recordReader) codes(dst []int) {
	for i := 0; i < len(dst) && rr.err == nil; {
		k := min(len(dst)-i, max(len(rr.b), spillBuf)/4)
		b := rr.take(4 * k)
		for j := 0; j < len(b); j += 4 {
			dst[i] = int(binary.LittleEndian.Uint32(b[j:]))
			i++
		}
	}
}

var errShortRecord = errors.New("record shorter than its contents")
