package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/assign wire codec. decodeAssign reads a request body in one
// byte-level pass straight into an assignRequest, and
// appendAssignResponse appends the response into a caller buffer;
// neither goes through reflection. The contract is encoding/json's,
// which the tests keep as the oracle (FuzzAssignBody,
// TestAssignResponseBytes): decodeAssign accepts exactly the bodies
// json.Decoder with DisallowUnknownFields accepts into an
// assignRequest, with reflect.DeepEqual results, except for two
// rejections: any non-whitespace after the value, and a struct field
// given twice in one object (the request or a row; keys inside
// "sensitive" may repeat, last wins). appendAssignResponse writes
// exactly json.Marshal's bytes plus json.Encoder's newline.

// maxPooledBuf bounds the buffers returned to bufPool, so one large
// body cannot pin its memory after it is served.
const maxPooledBuf = 1 << 20

// maxPresize bounds how much readBody allocates on the strength of a
// Content-Length header alone. A larger body grows the buffer as its
// bytes arrive, so a client that declares a big body and stalls holds
// no more than this.
const maxPresize = 64 << 10

// bufPool recycles request-body and response buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

// readBody reads the whole request body into a pooled buffer, which
// the caller returns with putBuf. A body longer than maxBody fails
// with a wrapped *http.MaxBytesError (HTTP 413, see bodyErrStatus).
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) (*[]byte, error) {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	if n := r.ContentLength; n >= int64(cap(b)) && n <= maxBody {
		b = make([]byte, 0, min(n+1, maxPresize)) // +1: the read that reports EOF needs room
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b
			putBuf(bp)
			return nil, fmt.Errorf("bad request body: %w", err)
		}
	}
	*bp = b
	return bp, nil
}

// fieldNames are the struct fields of assignRequest and assignRow,
// indexed by the field constants, most frequent first.
var fieldNames = [...][]byte{[]byte("features"), []byte("sensitive"), []byte("rows"), []byte("model"), []byte("raw")}

const (
	fieldFeatures = iota
	fieldSensitive
	fieldRows
	fieldModel
	fieldRaw
)

// fieldSet records the struct fields one object has given.
type fieldSet uint8

// add matches key to a struct field case-insensitively, with
// bytes.EqualFold as encoding/json matches them, and records it. It
// returns -1 for an unknown key, and fails on a field the object has
// already given.
func (s *fieldSet) add(key []byte) (int, error) {
	for f, name := range fieldNames {
		if bytes.EqualFold(key, name) {
			if *s&(1<<f) != 0 {
				return f, fmt.Errorf("repeated field %q", key)
			}
			*s |= 1 << f
			return f, nil
		}
	}
	return -1, nil
}

// region is one features slice's place in the decoder's slab: n values
// at slab[off:off+n].
type region struct {
	off, n int
	set    bool // false: the slice is nil
}

// object is the decode state of one JSON object that carries features
// and sensitive values: the top-level request or one row.
type object struct {
	features  region
	sensitive map[string]string
}

// wireDecoder is the state of one request's decode.
type wireDecoder struct {
	b   []byte
	pos int

	// slab holds every features array in parse order. Regions never
	// overlap, so each decoded row's features are a disjoint sub-slice
	// the caller may scale in place.
	slab []float64
	rows []object // nil unless the body holds a rows array

	interned map[string]string // sensitive keys and values
	scratch  []byte            // unescaped string bytes
}

// decodeAssign decodes a /v1/assign body.
func decodeAssign(body []byte) (assignRequest, error) {
	d := wireDecoder{b: body, interned: make(map[string]string)}
	req, err := d.decode()
	if err != nil {
		err = fmt.Errorf("bad request body: %w", err)
	}
	return req, err
}

func (d *wireDecoder) decode() (assignRequest, error) {
	var req assignRequest
	var top object
	var seen fieldSet
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null") // null leaves the request zero
	case '{':
		err = d.members(func(key []byte) error {
			f, err := seen.add(key)
			if err != nil {
				return err
			}
			switch f {
			case fieldFeatures:
				return d.floats(&top.features)
			case fieldSensitive:
				return d.strmap(&top.sensitive)
			case fieldRows:
				return d.rowsArray()
			case fieldModel:
				switch d.peek() {
				case 'n':
					return d.literal("null")
				case '"':
					s, err := d.str()
					req.Model = string(s)
					return err
				}
				return d.typeErr("model", "a string")
			case fieldRaw:
				switch d.peek() {
				case 'n':
					return d.literal("null")
				case 't':
					req.Raw = true
					return d.literal("true")
				case 'f':
					return d.literal("false")
				}
				return d.typeErr("raw", "a boolean")
			}
			return fmt.Errorf("unknown field %q", key)
		})
	default:
		err = d.typeErr("request", "an object")
	}
	if err != nil {
		return assignRequest{}, err
	}
	if d.ws(); d.pos != len(d.b) {
		return assignRequest{}, fmt.Errorf("trailing data at offset %d", d.pos)
	}

	take := func(f region) []float64 {
		switch {
		case !f.set:
			return nil
		case f.n == 0:
			return []float64{} // [] decodes to a non-nil empty slice
		}
		return d.slab[f.off : f.off+f.n : f.off+f.n]
	}
	req.Features, req.Sensitive = take(top.features), top.sensitive
	if d.rows != nil {
		req.Rows = make([]assignRow, len(d.rows))
		for i, o := range d.rows {
			req.Rows[i] = assignRow{Features: take(o.features), Sensitive: o.sensitive}
		}
	}
	return req, nil
}

// rowsArray decodes the rows value into d.rows; a null element is a
// zero row.
func (d *wireDecoder) rowsArray() error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
		d.pos++
	default:
		return d.typeErr("rows", "an array of objects")
	}
	d.rows = make([]object, 0) // [] is a non-nil empty slice; no allocation
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		n := len(d.rows)
		d.rows = append(d.rows, object{})
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case '{':
			o := &d.rows[n]
			var seen fieldSet
			err := d.members(func(key []byte) error {
				f, err := seen.add(key)
				if err != nil {
					return fmt.Errorf("%w in row %d", err, n)
				}
				switch f {
				case fieldFeatures:
					return d.floats(&o.features)
				case fieldSensitive:
					return d.strmap(&o.sensitive)
				}
				return fmt.Errorf("unknown field %q in row %d", key, n)
			})
			if err != nil {
				return err
			}
		default:
			return d.typeErr("rows", "an array of objects")
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxErr()
		}
	}
}

// floats decodes a features value into f; a null element decodes as 0.
func (d *wireDecoder) floats(f *region) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
		d.pos++
	default:
		return d.typeErr("features", "an array of numbers")
	}
	*f = region{off: len(d.slab), set: true}
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		var v float64
		var err error
		if d.peek() == 'n' {
			err = d.literal("null")
		} else {
			v, err = d.number()
		}
		if err != nil {
			return err
		}
		d.slab = append(d.slab, v)
		f.n++
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxErr()
		}
	}
}

// strmap decodes a sensitive value into *m; a repeated key keeps its
// last value, and a null member value decodes as "".
func (d *wireDecoder) strmap(m *map[string]string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeErr("sensitive", "an object of strings")
	}
	*m = make(map[string]string)
	return d.members(func(key []byte) error {
		k := d.intern(key)
		switch d.peek() {
		case '"':
			v, err := d.str()
			if err != nil {
				return err
			}
			(*m)[k] = d.intern(v)
			return nil
		case 'n':
			(*m)[k] = ""
			return d.literal("null")
		}
		return d.typeErr("sensitive", "an object of strings")
	})
}

// intern returns b as a string, allocating only on its first sighting
// in this request.
func (d *wireDecoder) intern(b []byte) string {
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	d.interned[s] = s
	return s
}

// members walks the object at d.pos, calling member with each
// unescaped key and d.pos at the member's value.
func (d *wireDecoder) members(member func(key []byte) error) error {
	d.pos++ // '{'
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr()
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxErr()
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxErr()
		}
	}
}

func (d *wireDecoder) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input (a raw 0 byte is never valid JSON outside a string either).
func (d *wireDecoder) peek() byte {
	d.ws()
	if d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

func (d *wireDecoder) literal(lit string) error {
	if len(d.b)-d.pos < len(lit) || string(d.b[d.pos:d.pos+len(lit)]) != lit {
		return d.syntaxErr()
	}
	d.pos += len(lit)
	return nil
}

// number consumes a number matching the JSON grammar and parses it as
// encoding/json does; out-of-range values are rejected.
func (d *wireDecoder) number() (float64, error) {
	b, start, i := d.b, d.pos, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.pos = i
		return 0, d.syntaxErr()
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return 0, d.syntaxErr()
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return 0, d.syntaxErr()
		}
	}
	d.pos = i
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d: %w", b[start:i], start, err)
	}
	return v, nil
}

// str consumes the string literal at d.pos and returns its unescaped
// bytes: a sub-slice of the body when the literal is escape-free valid
// UTF-8, else d.scratch.
func (d *wireDecoder) str() ([]byte, error) {
	b := d.b
	start := d.pos + 1
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return b[start:i], nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.pos = len(b)
	return nil, d.syntaxErr()
}

// unescape finishes a string literal whose bytes from start up to i
// need no rewriting. As in encoding/json, invalid UTF-8 and unpaired
// surrogate escapes decode to U+FFFD.
func (d *wireDecoder) unescape(start, i int) ([]byte, error) {
	b := d.b
	out := append(d.scratch[:0], b[start:i]...)
	defer func() { d.scratch = out[:0] }()
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < ' ':
			d.pos = i
			return nil, d.syntaxErr()
		case c == '\\':
			if i+1 == len(b) {
				d.pos = len(b)
				return nil, d.syntaxErr()
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok {
					d.pos = i
					return nil, d.syntaxErr()
				}
				if utf16.IsSurrogate(r) {
					lo := rune(-1)
					if j := i + 6; j+1 < len(b) && b[j] == '\\' && b[j+1] == 'u' {
						if v, ok := hex4(b[j+2:]); ok {
							lo = v
						}
					}
					if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
						i += 6 // the pair's low half
					}
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				d.pos = i + 1
				return nil, d.syntaxErr()
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(b)
	return nil, d.syntaxErr()
}

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

func (d *wireDecoder) syntaxErr() error {
	if d.pos >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", d.b[d.pos], d.pos)
}

func (d *wireDecoder) typeErr(field, want string) error {
	return fmt.Errorf("%s at offset %d must be %s or null", field, d.pos, want)
}

// appendAssignResponse appends the /v1/assign response: byte for byte
// json.Marshal of {"model","generation","assignments":[{"cluster",
// "distance"}...]} plus json.Encoder's trailing newline. Every distance
// must be finite; the assigner rejects requests whose are not.
func appendAssignResponse(b []byte, model string, generation int, clusters []int, dists []float64) []byte {
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(generation), 10)
	b = append(b, `,"assignments":[`...)
	for i, c := range clusters {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"cluster":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"distance":`...)
		b = appendJSONFloat(b, dists[i])
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendJSONFloat formats f as encoding/json does: like the ES6 number
// to string conversion, exponent form below 1e-6 and from 1e21 up, with
// exponents unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //fairvet:ignore floateq -- exact zero test, as encoding/json makes it
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes strings:
// HTML-sensitive bytes, U+2028 and U+2029 escaped, invalid UTF-8 as
// U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
