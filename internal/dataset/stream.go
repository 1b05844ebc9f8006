package dataset

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// CSVStream reads a headed CSV source in bounded chunks, so arbitrarily
// large files can be summarized (internal/coreset.Stream) or scanned
// (second-pass metrics) in fixed memory: one chunk of rows plus one
// read-ahead window of at most a few hundred KiB per worker, whatever
// the file size. It is the ingestion stage of the summarize-then-solve
// pipeline behind cmd/fairstream.
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
// Next decodes the source one window at a time on GOMAXPROCS workers:
// the window is cut at record ends into one piece per worker, the
// pieces are decoded in parallel, and the calling goroutine joins their
// rows in file order. The chunks, errors and Rows counts are exactly
// those of a sequential read; the first error ends the stream, and
// every later Next returns it again. Every goroutine Next starts has
// exited when it returns, so an abandoned stream needs no Close.
//
// The rows of a chunk's Features are carved from one []float64 slab
// per piece, each row capped at its width so appending to it never
// touches its neighbour. A slab holds a piece's rows — about a hundred
// KiB of input — so consecutive chunks can share one, and they share
// nothing else: every slab is freshly allocated. A consumer that keeps
// a row beyond the chunk should copy it, as coreset.Stream.Add does,
// or it keeps the whole slab alive.
type CSVStream struct {
	c       *csvReader // the header's column layout
	chunk   int
	domains []*DomainIndex

	src    io.Reader
	srcErr error  // what src returned when it stopped; nil while it may have more
	buf    []byte // the read-ahead window
	n      int    // buf[:n] holds input
	tail   int    // buf[tail:n] is the input after the last piece cut
	size   int    // the bytes each piece aims at

	decs   []*pieceDecoder // one per worker; decs[:pieces] hold the window's pieces
	pieces int
	wg     sync.WaitGroup // the workers decoding decs[1:pieces]
	cur    int            // the join is at row row of decs[cur]'s piece
	row    int
	lines  int   // input lines before decs[cur]'s piece, header included
	rows   int   // data rows decoded, as Rows reports them
	err    error // io.EOF or the first error, returned by every later Next

	// before, when set, counts the lines of the file between its
	// header and the source (CSVShards.Open's range), and the records
	// among them, so a record error is placed in the file. It runs
	// only for an error.
	before func() (lines, records int, err error)
}

// pieceDecoder is one worker's state. It decodes a piece of the window
// into flat rows, holding each categorical cell as a code in its own
// dictionary, which it keeps across pieces so that a value's string is
// copied once per worker, not once per piece.
type pieceDecoder struct {
	r      csvReader      // a tokenizer over the piece, and the column layout
	dict   []*DomainIndex // categorical values in this worker's order of first sight
	stream [][]int        // dict code → stream code, -1 until the join first meets it

	piece []byte
	end   error     // what the piece's tokenizer meets after its last byte
	lines int       // '\n' bytes in piece
	rows  int       // records decoded, all before err
	slab  []float64 // the rows' features, row-major; fresh per piece
	feats []float64 // scratch the features are decoded into
	nums  []float64
	cats  []int
	err   *recordError // the record that stopped the decode, if any
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

// pieceSize is how many bytes of the window each worker decodes per
// fork-join: large enough that starting a goroutine is noise, small
// enough that the window stays within a few hundred KiB.
const pieceSize = 128 << 10

// NewCSVStream opens a chunked reader over a headed CSV source. It
// reads and validates the header immediately, so column errors surface
// before any chunk is requested.
func NewCSVStream(r io.Reader, spec CSVSpec, chunkSize int) (*CSVStream, error) {
	return newCSVStream(r, spec, chunkSize, runtime.GOMAXPROCS(0), pieceSize)
}

// newCSVStream is NewCSVStream decoding on the given number of workers,
// each piece aiming at size bytes.
func newCSVStream(r io.Reader, spec CSVSpec, chunkSize, workers, size int) (*CSVStream, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	c, err := openCSV(r, spec)
	if err != nil {
		return nil, err
	}
	// The window starts with what the header's tokenizer read ahead.
	t := c.tok
	s := &CSVStream{
		c:       c,
		chunk:   chunkSize,
		domains: make([]*DomainIndex, len(c.cIdx)),
		src:     r,
		srcErr:  t.err,
		buf:     make([]byte, max((workers+1)*size, t.end-t.pos)),
		size:    size,
		decs:    make([]*pieceDecoder, workers),
		lines:   t.numLine,
	}
	s.n = copy(s.buf, t.buf[t.pos:t.end])
	for i := range s.domains {
		s.domains[i] = NewDomainIndex()
	}
	for i := range s.decs {
		d := &pieceDecoder{r: *c, dict: make([]*DomainIndex, len(c.cIdx)), stream: make([][]int, len(c.cIdx))}
		d.r.tok = &tokenizer{nfields: t.nfields}
		d.r.cats = make([][]byte, len(c.cIdx))
		for j := range d.dict {
			d.dict[j] = NewDomainIndex()
		}
		s.decs[i] = d
	}
	c.tok = nil // the window holds its bytes now
	return s, nil
}

// Next returns the next chunk of up to chunkSize rows as a validated
// Dataset, or (nil, io.EOF) once the source is exhausted. Chunks share
// nothing with each other except the stable code assignment and the
// slabs their feature rows are carved from; sensitive columns are
// freshly allocated per chunk.
func (s *CSVStream) Next() (*Dataset, error) {
	if s.err != nil {
		return nil, s.err
	}
	spec := s.c.spec
	nf, nc, nn := len(s.c.fIdx), len(s.c.cIdx), len(s.c.nIdx)
	// Columns start with room for at most DefaultChunkSize rows, so a
	// huge chunkSize is not allocated up front.
	block := min(s.chunk, DefaultChunkSize)
	features := make([][]float64, 0, s.chunk)
	codes := make([][]int, nc)
	for i := range codes {
		codes[i] = make([]int, 0, block)
	}
	reals := make([][]float64, nn)
	for i := range reals {
		reals[i] = make([]float64, 0, block)
	}
	for len(features) < s.chunk {
		if s.cur == s.pieces {
			if !s.decodeWindow() {
				s.err = io.EOF
				break
			}
			continue
		}
		d := s.decs[s.cur]
		for ; s.row < d.rows && len(features) < s.chunk; s.row++ {
			at := s.row * nf
			features = append(features, d.slab[at:at+nf:at+nf])
			for i := range codes {
				codes[i] = append(codes[i], d.streamCode(i, d.cats[s.row*nc+i], s.domains[i]))
			}
			for i := range reals {
				reals[i] = append(reals[i], d.nums[s.row*nn+i])
			}
			s.rows++
		}
		if s.row < d.rows || len(features) == s.chunk {
			break
		}
		if d.err != nil {
			s.err = s.place(d.err)
			return nil, s.err
		}
		s.lines += d.lines
		s.cur, s.row = s.cur+1, 0
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
		s.err = err
		return nil, err
	}
	return ds, nil
}

// place gives the record error that stopped decs[cur]'s piece the
// file-absolute numbers a sequential read reports: the record's number
// from the rows joined before it, and the tokenizer's lines offset by
// the lines before the piece. A record whose cells failed to parse was
// read, so it counts in Rows.
func (s *CSVStream) place(e *recordError) error {
	e.line = s.rows + 2 // the header is record 1
	if e.column != "" {
		s.rows++
	}
	lines := s.lines
	if s.before != nil {
		// Unreadable, the prefix leaves the numbers source-relative.
		if l, r, err := s.before(); err == nil {
			lines += l
			e.line += r
		}
	}
	if pe, ok := e.err.(*parseError); ok {
		pe.startLine += lines
		pe.line += lines
	}
	return e
}

// decodeWindow refills the window behind the uncut tail, cuts it into
// pieces and decodes them, one per worker, the calling goroutine taking
// the first. It returns false once no input is left.
func (s *CSVStream) decodeWindow() bool {
	s.n = copy(s.buf, s.buf[s.tail:s.n])
	for {
		for s.n < len(s.buf) && s.srcErr == nil {
			k, err := readSome(s.src, s.buf[s.n:])
			s.n += k
			s.srcErr = err
		}
		s.tail = s.cut()
		if s.pieces > 0 {
			break
		}
		if s.srcErr != nil {
			return false
		}
		// No record ends in the window: it is shorter than a record.
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	s.cur, s.row = 0, 0
	for _, d := range s.decs[1:s.pieces] {
		d := d
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			d.decode()
		}()
	}
	s.decs[0].decode()
	s.wg.Wait()
	return true
}

// cut hands buf[:n] to the decoders as consecutive pieces, piece i
// ending just past the first record end at or after (i+1)·size, and
// returns where the input it left uncut starts. A record end is a
// '\n' outside quotes by quote parity counted from the window start,
// itself a record start. For valid CSV that is exactly where records
// end. For invalid CSV a cut can fall inside a record, but only after
// the first record the tokenizer rejects: up to its error, every quote
// it has met is one parity counts correctly. The piece holding that
// record therefore holds every line a sequential read would, and
// reports its error; the pieces after it are never joined. Once the
// source has stopped, the last piece takes the rest of the input, and
// ends with what the source returned.
func (s *CSVStream) cut() int {
	b := s.buf[:s.n]
	atEnd := s.srcErr != nil
	s.pieces = 0
	prev := 0
	for i, d := range s.decs {
		end := -1
		if t := max(prev, (i+1)*s.size); t < len(b) {
			if e, _ := recordEnd(b[t:], oddQuotes(b[prev:t])); e >= 0 {
				end = t + e
			}
		}
		if end < 0 {
			if !atEnd || (prev == len(b) && s.srcErr == io.EOF) {
				break
			}
			end = len(b)
		}
		last := atEnd && end == len(b)
		d.piece, d.end = b[prev:end], io.EOF
		if last {
			d.end = s.srcErr
		}
		s.pieces++
		prev = end
		if last {
			break
		}
	}
	return prev
}

// decode decodes d.piece's records, stopping at the first one it
// cannot decode.
func (d *pieceDecoder) decode() {
	d.lines = bytes.Count(d.piece, []byte{'\n'}) // before the tokenizer rewrites any "\r\n"
	d.r.tok.setPiece(d.piece, d.end)
	nf, nn := len(d.r.fIdx), len(d.r.nIdx)
	d.rows, d.err = 0, nil
	d.feats, d.nums, d.cats = d.feats[:0], d.nums[:0], d.cats[:0]
	for {
		d.feats = slices.Grow(d.feats, nf)[:len(d.feats)+nf]
		d.nums = slices.Grow(d.nums, nn)[:len(d.nums)+nn]
		cats, err := d.r.read(d.feats[len(d.feats)-nf:], d.nums[len(d.nums)-nn:])
		if err != nil {
			d.feats, d.nums = d.feats[:d.rows*nf], d.nums[:d.rows*nn]
			if err != io.EOF {
				d.err = err.(*recordError)
			}
			break
		}
		for i, v := range cats {
			d.cats = append(d.cats, d.dict[i].codeBytes(v))
		}
		d.rows++
	}
	// A fresh slab, copied in parallel here: the chunks own its rows.
	d.slab = make([]float64, len(d.feats))
	copy(d.slab, d.feats)
	for i, dict := range d.dict {
		for len(d.stream[i]) < dict.Len() {
			d.stream[i] = append(d.stream[i], -1)
		}
	}
}

// streamCode returns the stream code of column i's dictionary code c,
// assigning it in dom on the join's first sight of the value — in file
// order, so codes are still assigned in order of first appearance.
func (d *pieceDecoder) streamCode(i, c int, dom *DomainIndex) int {
	code := d.stream[i][c]
	if code < 0 {
		code = dom.Code(d.dict[i].values[c])
		d.stream[i][c] = code
	}
	return code
}

// Rows returns how many data rows Next has read so far, counted as a
// sequential read counts them: rows decoded ahead of the chunks do not
// count until a chunk reaches them.
func (s *CSVStream) Rows() int { return s.rows }
