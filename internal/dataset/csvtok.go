package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// tokenBufSize is the tokenizer's read buffer size; the buffer grows
// only for a record longer than it.
const tokenBufSize = 64 << 10

// Errors a malformed record reports, worded as encoding/csv words them.
var (
	errBareQuote  = errors.New("bare \" in non-quoted-field")
	errQuote      = errors.New("extraneous or missing \" in quoted-field")
	errFieldCount = errors.New("wrong number of fields")
)

// parseError locates a malformed record. Lines and columns are
// 1-based, columns count bytes, and the message reads exactly as
// encoding/csv's ParseError does.
type parseError struct {
	startLine int // line where the record starts
	line      int // line where the error occurred
	column    int
	err       error
}

func (e *parseError) Error() string {
	if e.err == errFieldCount {
		return fmt.Sprintf("record on line %d: %v", e.line, e.err)
	}
	if e.startLine != e.line {
		return fmt.Sprintf("record on line %d; parse error on line %d, column %d: %v", e.startLine, e.line, e.column, e.err)
	}
	return fmt.Sprintf("parse error on line %d, column %d: %v", e.line, e.column, e.err)
}

func (e *parseError) Unwrap() error { return e.err }

// tokenizer splits a CSV byte stream into records of field byte-slices.
// It accepts exactly what encoding/csv.Reader accepts with
// TrimLeadingSpace set and every other option at its default, and
// fails where it fails, with the same message:
//
//   - fields are split on ',' and records on '\n'; "\r\n" reads as
//     "\n", and a '\r' that ends the input is dropped;
//   - blank lines are skipped;
//   - leading Unicode white space is trimmed from every field;
//   - a field that starts with '"' is quoted: it may hold commas,
//     newlines and "" escapes, and its closing quote must be followed
//     by ',' or the end of the line (errQuote otherwise, or when the
//     input ends inside the quotes);
//   - a '"' inside an unquoted field is errBareQuote;
//   - the first record fixes the field count (errFieldCount).
//
// Unlike csv.Reader it allocates nothing per record: the returned
// fields are slices of the read buffer (quoted fields are unescaped in
// place) and stay valid only until the next call to next.
type tokenizer struct {
	src io.Reader
	err error // what src returned when it stopped (io.EOF at end of input)

	buf   []byte
	pin   int // start of the record being parsed; fill keeps buf[pin:]
	pos   int // next unread byte
	end   int // buf[:end] holds input
	scan  int // buf[pos:scan] holds no '\n'
	line0 int // where in buf the line readLine last returned starts

	numLine int // lines read so far, counted as encoding/csv counts them
	nfields int // fields per record, fixed by the first record

	spans  []int // current record's fields as [start, end) pairs, relative to pin
	fields [][]byte
}

// newTokenizer returns a tokenizer reading r through a buffer of
// bufSize bytes.
func newTokenizer(r io.Reader, bufSize int) *tokenizer {
	return &tokenizer{src: r, buf: make([]byte, max(bufSize, 1))}
}

// fill reads more input into buf[end:]. It first slides the record
// being parsed to the front of buf, and doubles buf when that record
// already fills it.
func (t *tokenizer) fill() {
	if t.pin > 0 {
		t.end = copy(t.buf, t.buf[t.pin:t.end])
		t.pos -= t.pin
		t.scan -= t.pin
		t.pin = 0
	}
	if t.end == len(t.buf) {
		t.buf = append(t.buf, make([]byte, len(t.buf))...)
	}
	n, err := readSome(t.src, t.buf[t.end:])
	t.end += n
	t.err = err
}

// readSome reads into p until a read returns bytes or an error. Like
// bufio.Reader, it gives up on a source that keeps returning nothing.
func readSome(r io.Reader, p []byte) (int, error) {
	for i := 0; i < 100; i++ {
		n, err := r.Read(p)
		if n > 0 || err != nil {
			return n, err
		}
	}
	return 0, io.ErrNoProgress
}

// setPiece points t at a piece of input held whole in b, which ends
// with err: io.EOF, or the source's error where the input stopped.
// Lines are counted from the piece's start, and the field count t
// expects is kept.
func (t *tokenizer) setPiece(b []byte, err error) {
	*t = tokenizer{buf: b, end: len(b), err: err, nfields: t.nfields, spans: t.spans[:0], fields: t.fields[:0]}
}

// recordEnd returns the offset just past the first '\n' in b that lies
// outside quotes, given whether b starts inside them, or -1 and whether
// b ends inside them. Quote parity counted from a record start finds
// exactly the record ends of valid CSV: a quoted field holds its
// opening and closing quotes and "" escapes, so any newline inside
// one follows an odd number of quotes, and a record's final newline
// an even number.
func recordEnd(b []byte, inQuote bool) (int, bool) {
	for off := 0; ; {
		i := bytes.IndexByte(b[off:], '\n')
		if i < 0 {
			return -1, inQuote != oddQuotes(b[off:])
		}
		if inQuote = inQuote != oddQuotes(b[off:off+i]); !inQuote {
			return off + i + 1, false
		}
		off += i + 1
	}
}

// oddQuotes reports whether b holds an odd number of '"'.
func oddQuotes(b []byte) bool { return bytes.Count(b, quote)&1 == 1 }

var quote = []byte{'"'}

// readLine returns the next line with its '\n', or without one at the
// end of input, normalized as encoding/csv normalizes it: a trailing
// "\r\n" becomes "\n", and a '\r' just before the end of input is
// dropped. The error is non-nil only when no bytes remain or the
// source failed.
func (t *tokenizer) readLine() ([]byte, error) {
	t.numLine++
	for {
		if i := bytes.IndexByte(t.buf[t.scan:t.end], '\n'); i >= 0 {
			n := t.scan + i + 1
			line := t.buf[t.pos:n]
			t.line0, t.pos, t.scan = t.pos, n, n
			if k := len(line); k >= 2 && line[k-2] == '\r' {
				line[k-2] = '\n'
				line = line[:k-1]
			}
			return line, nil
		}
		t.scan = t.end
		if t.err != nil {
			break
		}
		t.fill()
	}
	line := t.buf[t.pos:t.end]
	t.line0, t.pos = t.pos, t.end
	if len(line) == 0 || t.err != io.EOF {
		return line, t.err
	}
	if line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// lengthNL reports the number of bytes of b's trailing '\n'.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// leadingSpace returns the length of b's leading run of Unicode white
// space.
func leadingSpace(b []byte) int {
	i := 0
	for i < len(b) {
		r, size := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(b[i:])
		}
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return i
}

// next returns the fields of the next record, or io.EOF once the input
// is exhausted. The fields share the tokenizer's buffer and are
// overwritten by the following call. A line without '"' — almost every
// line of a numeric table — is split by the IndexByte scans alone.
func (t *tokenizer) next() ([][]byte, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		t.pin = t.pos
		line, errRead = t.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // skip blank lines
		}
		break
	}
	if errRead == io.EOF {
		return nil, io.EOF
	}

	var err error
	recLine := t.numLine
	errLine, col := t.numLine, 1 // position of the parser, as encoding/csv reports it
	off := t.line0 - t.pin       // where line[0] sits, relative to pin
	quoteFree := bytes.IndexByte(line, '"') < 0
	t.spans = t.spans[:0]
parseField:
	for {
		if len(line) > 0 && (line[0] <= ' ' || line[0] >= utf8.RuneSelf) {
			i := leadingSpace(line)
			if i == len(line) {
				col -= lengthNL(line)
			}
			line, off, col = line[i:], off+i, col+i
		}
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: it runs to the next comma or the end of
			// the line, and is returned as a slice of the line.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if !quoteFree {
				if j := bytes.IndexByte(field, '"'); j >= 0 {
					err = &parseError{startLine: recLine, line: t.numLine, column: col + j, err: errBareQuote}
					break parseField
				}
			}
			t.spans = append(t.spans, off, off+len(field))
			if i < 0 {
				break parseField
			}
			line, off, col = line[i+1:], off+i+1, col+i+1
			continue parseField
		}
		// Quoted field: its unescaped bytes are written back over the
		// raw ones from the opening quote on. The write cursor w never
		// passes the read position, and both are relative to pin, so
		// they survive fill sliding the record to the front of buf.
		start := off
		w := off
		line, off, col = line[1:], off+1, col+1
		for {
			if i := bytes.IndexByte(line, '"'); i >= 0 {
				w += copy(t.buf[t.pin+w:], line[:i])
				line, off, col = line[i+1:], off+i+1, col+i+1
				switch {
				case len(line) > 0 && line[0] == '"': // "" escape
					t.buf[t.pin+w] = '"'
					w++
					line, off, col = line[1:], off+1, col+1
				case len(line) > 0 && line[0] == ',':
					line, off, col = line[1:], off+1, col+1
					t.spans = append(t.spans, start, w)
					continue parseField
				case lengthNL(line) == len(line):
					t.spans = append(t.spans, start, w)
					break parseField
				default:
					err = &parseError{startLine: recLine, line: t.numLine, column: col - 1, err: errQuote}
					break parseField
				}
			} else if len(line) > 0 {
				// The field goes on past the end of this line.
				w += copy(t.buf[t.pin+w:], line)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = t.readLine()
				off = t.line0 - t.pin
				quoteFree = bytes.IndexByte(line, '"') < 0
				if len(line) > 0 {
					errLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			} else {
				// The input ended inside the quotes.
				if errRead == nil {
					err = &parseError{startLine: recLine, line: errLine, column: col, err: errQuote}
					break parseField
				}
				t.spans = append(t.spans, start, w)
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}

	t.fields = t.fields[:0]
	for k := 0; k < len(t.spans); k += 2 {
		a, b := t.pin+t.spans[k], t.pin+t.spans[k+1]
		t.fields = append(t.fields, t.buf[a:b:b])
	}
	if t.nfields == 0 {
		t.nfields = len(t.fields)
	} else if len(t.fields) != t.nfields && err == nil {
		err = &parseError{startLine: recLine, line: recLine, column: 1, err: errFieldCount}
	}
	return t.fields, err
}
