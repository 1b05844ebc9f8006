package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// ByteRange is a half-open [Start, End) byte span of a file.
type ByteRange struct {
	Start, End int64
}

// Len returns the number of bytes in the range.
func (r ByteRange) Len() int64 { return r.End - r.Start }

// CSVShards describes a headed CSV file split on row boundaries into
// independently readable byte ranges, so multiple goroutines (or
// processes) can ingest disjoint parts of one file in parallel — the
// sharded counterpart of a single CSVStream. Build one with SplitCSV,
// then Open each shard as its own chunked stream.
//
// Every data row of the file belongs to exactly one range; ranges can
// be empty when the file has fewer rows than shards. The header line is
// replayed to every shard on Open, so each shard stream validates the
// same columns independently.
type CSVShards struct {
	// Path is the file the ranges index into.
	Path string
	// Ranges are the per-shard data spans, in file order. Each starts
	// at the beginning of a row (or equals its End when empty) and ends
	// just past a row's newline (or at EOF for the last shard).
	Ranges []ByteRange

	header []byte // raw header line, including its newline when present
}

// splitScanBuf is the read granularity of the boundary scan.
const splitScanBuf = 64 * 1024

// SplitCSV splits the headed CSV file at path into shards byte ranges
// aligned to row boundaries: each target boundary (an even byte split
// of the data region) is advanced to just past the next newline, so no
// row is ever torn across two shards and the union of the ranges is
// exactly the set of data rows. Only the bytes around each boundary are
// read — splitting a multi-gigabyte file costs O(shards) small reads.
//
// Rows must not contain embedded (quoted) newlines: boundaries are
// found by scanning for '\n', and a newline inside a quoted field would
// be mistaken for a row end (the same restriction as Hadoop-style text
// splits). Files written by WriteCSV and the generators here satisfy
// it. The header line itself is scanned quote-aware, so quoted header
// names are fine.
func SplitCSV(path string, shards int) (*CSVShards, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dataset: shards=%d must be positive", shards)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: split: %w", err)
	}
	defer f.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("dataset: split: %w", err)
	}
	size := info.Size()

	header, err := readHeaderLine(f, size)
	if err != nil {
		return nil, err
	}
	dataStart := int64(len(header))

	s := &CSVShards{Path: path, header: header}
	dataLen := size - dataStart
	prev := dataStart
	for i := 1; i < shards; i++ {
		target := dataStart + dataLen*int64(i)/int64(shards)
		cut := target
		if cut < prev {
			cut = prev
		}
		cut, err = nextRowStart(f, cut, size)
		if err != nil {
			return nil, err
		}
		s.Ranges = append(s.Ranges, ByteRange{Start: prev, End: cut})
		prev = cut
	}
	s.Ranges = append(s.Ranges, ByteRange{Start: prev, End: size})
	return s, nil
}

// Shards returns the number of ranges.
func (s *CSVShards) Shards() int { return len(s.Ranges) }

// Open returns a chunked CSV stream over shard i — the header replayed
// ahead of the shard's byte range — plus the underlying file handle,
// which the caller must Close when the stream is drained. Each shard
// stream has its own incremental domain state; the pipeline's merge
// step reconciles codes across shards.
func (s *CSVShards) Open(i int, spec CSVSpec, chunkSize int) (*CSVStream, io.Closer, error) {
	if i < 0 || i >= len(s.Ranges) {
		return nil, nil, fmt.Errorf("dataset: shard %d out of range [0,%d)", i, len(s.Ranges))
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: split: %w", err)
	}
	r := s.Ranges[i]
	// A header without a newline is the whole file, so every range is
	// empty and the stream reads exactly the file's bytes, as a
	// sequential read does: the same records and the same errors.
	src := io.MultiReader(bytes.NewReader(s.header), io.NewSectionReader(f, r.Start, r.Len()))
	stream, err := NewCSVStream(src, spec, chunkSize)
	if err != nil {
		f.Close() //fairvet:ignore errflow -- read-only file closed on the error path; the stream error wins
		return nil, nil, err
	}
	if data := int64(len(s.header)); r.Start > data {
		// A bad row is reported by its place in the file: the stream
		// counts from the range start, so the lines before the range
		// are counted, only when an error needs them.
		stream.before = func() (lines, records int, err error) {
			return countLines(io.NewSectionReader(f, data, r.Start-data))
		}
	}
	return stream, f, nil
}

// countLines counts the lines r holds, each ending in '\n' (ranges
// hold no embedded newlines), and how many of them are records: not
// blank ("\n" or "\r\n"), which a CSV reader skips.
func countLines(r io.Reader) (lines, records int, err error) {
	buf := make([]byte, splitScanBuf)
	prev2, prev := byte(0), byte('\n') // r starts a line
	for {
		k, err := r.Read(buf)
		for _, c := range buf[:k] {
			if c == '\n' {
				lines++
				if prev != '\n' && (prev != '\r' || prev2 != '\n') {
					records++
				}
			}
			prev2, prev = prev, c
		}
		if err == io.EOF {
			return lines, records, nil
		}
		if err != nil {
			return lines, records, err
		}
	}
}

// readHeaderLine reads the header line (including its newline) from the
// start of the file, honouring quoted fields so a quoted header name
// containing '\n' does not truncate the header. Blank lines ahead of
// it, which a CSV reader skips, are part of the returned bytes.
func readHeaderLine(f io.ReaderAt, size int64) ([]byte, error) {
	if size == 0 {
		return nil, fmt.Errorf("dataset: split: empty CSV")
	}
	buf := make([]byte, splitScanBuf)
	start, err := blankPrefix(f, size, buf)
	if err != nil {
		return nil, err
	}
	header := make([]byte, start)
	if _, err := f.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("dataset: split: %w", err)
	}
	inQuote := false
	for off := start; off < size; {
		n, err := f.ReadAt(buf, off)
		if n == 0 && err != nil && err != io.EOF {
			return nil, fmt.Errorf("dataset: split: %w", err)
		}
		end, q := recordEnd(buf[:n], inQuote)
		if end >= 0 {
			return append(header, buf[:end]...), nil
		}
		inQuote = q
		header = append(header, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			break
		}
	}
	// No newline: the whole file is the header (no data rows).
	return header, nil
}

// blankPrefix returns the length of the blank lines ("\n" or "\r\n")
// the file starts with.
func blankPrefix(f io.ReaderAt, size int64, buf []byte) (int64, error) {
	pos := int64(0)
	for pos < size {
		n, err := f.ReadAt(buf, pos)
		if n == 0 && err != nil && err != io.EOF {
			return 0, fmt.Errorf("dataset: split: %w", err)
		}
		i := 0
		for i < n {
			if buf[i] == '\n' {
				i++
			} else if buf[i] == '\r' && i+1 < n && buf[i+1] == '\n' {
				i += 2
			} else {
				break
			}
		}
		pos += int64(i)
		// Stop at a line that is not blank; a '\r' that ends the read
		// is looked at again with the bytes after it.
		if i < n && (buf[i] != '\r' || i+1 < n || i == 0) {
			return pos, nil
		}
		if err == io.EOF {
			break
		}
	}
	return pos, nil
}

// nextRowStart advances pos to the first byte after the next '\n' at or
// beyond it, clamping to size when no newline follows.
func nextRowStart(f io.ReaderAt, pos, size int64) (int64, error) {
	buf := make([]byte, splitScanBuf)
	for off := pos; off < size; {
		n, err := f.ReadAt(buf, off)
		if n == 0 && err != nil && err != io.EOF {
			return 0, fmt.Errorf("dataset: split: %w", err)
		}
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		off += int64(n)
		if err == io.EOF {
			break
		}
	}
	return size, nil
}
