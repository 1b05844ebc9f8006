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

	"repro/internal/numparse"
	"repro/internal/serve"
)

// The /v1/assign wire codec. wireDecoder.decode reads a request body
// in one byte-level pass: numbers convert inside the JSON grammar scan
// (numparse), features land in one slab, and each sensitive member is
// kept as a key span and a value span into the body, with no map and
// no string; the handler resolves the spans to model codes once the
// model is known (wireDecoder.label). appendAssignResponse appends the
// response into a caller buffer. Neither goes through reflection. The
// contract is encoding/json's, which the tests keep as the oracle
// (FuzzAssignBody, TestAssignResponseBytes): the decoder accepts
// exactly the bodies json.Decoder with DisallowUnknownFields accepts
// into the request schema (assignRequest in the tests), and its spans
// read back as maps give reflect.DeepEqual results, except for two
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

// fieldNames are the request's and a row's JSON fields (the struct
// fields encoding/json would match), indexed by the field constants,
// most frequent first.
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
	f := field(key)
	if f >= 0 {
		if *s&(1<<f) != 0 {
			return f, fmt.Errorf("repeated field %q", key)
		}
		*s |= 1 << f
	}
	return f, nil
}

// field returns the struct field key names, or -1. Keys almost always
// spell a field exactly, so that is tried before case folding.
func field(key []byte) int {
	for f, name := range fieldNames {
		if bytes.Equal(key, name) {
			return f
		}
	}
	for f, name := range fieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return -1
}

// region is a run of n decoded values at off in one of the decoder's
// slabs: a features slice in slab, or a sensitive object's members in
// pairs.
type region struct {
	off, n int
	set    bool // false: the value was absent or null
}

// span is a decoded string: body bytes [off, end), or, at or past
// len(body), the unescaped bytes [off−len(body), end−len(body)) of the
// decoder's strs.
type span struct{ off, end int }

// pair is one member of a sensitive object. A null value is the empty
// span, the "" that encoding/json decodes it to.
type pair struct{ key, val span }

// object is the decode state of one JSON object that carries features
// and sensitive values: the top-level request or one row.
type object struct {
	features  region
	sensitive region
}

// wireDecoder is the state of one request's decode. Its slabs outlive
// the decode: the handler scores the features in place and resolves
// the sensitive spans against the model once the model field, which
// may follow the rows, names it. Decoders are pooled, slabs included.
type wireDecoder struct {
	b   []byte
	pos int

	model   string
	raw     bool
	top     object
	rows    []object
	hasRows bool // a rows array was given, possibly empty

	// slab holds every features array in parse order. Regions never
	// overlap, so each decoded row's features are a disjoint sub-slice
	// the caller may scale in place.
	slab  []float64
	pairs []pair
	strs  []byte // unescaped strings

	keys []keySlot // the request's distinct sensitive keys, resolved
}

// keySlot is a sensitive key resolved to its tracked attribute slot.
type keySlot struct {
	name []byte
	slot int
}

// maxKeys bounds how many distinct sensitive keys a request resolves
// once and remembers; keys past it are resolved at every use.
const maxKeys = 16

// maxPooledValues bounds each slab of a pooled decoder, as maxPooledBuf
// bounds pooled buffers.
const maxPooledValues = 1 << 17

var decoderPool = sync.Pool{New: func() any { return new(wireDecoder) }}

func getDecoder() *wireDecoder { return decoderPool.Get().(*wireDecoder) }

// putDecoder recycles d once nothing reads its slabs.
func putDecoder(d *wireDecoder) {
	if cap(d.slab) > maxPooledValues || cap(d.pairs) > maxPooledValues || cap(d.rows) > maxPooledValues || cap(d.strs) > maxPooledBuf {
		return
	}
	clear(d.keys)
	*d = wireDecoder{rows: d.rows[:0], slab: d.slab[:0], pairs: d.pairs[:0], strs: d.strs[:0], keys: d.keys[:0]}
	decoderPool.Put(d)
}

// decode decodes a /v1/assign body into d, a decoder from getDecoder.
// body must outlive every use of d's spans.
func (d *wireDecoder) decode(body []byte) error {
	d.b = body
	var seen fieldSet
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null") // null leaves the request zero
	case '{':
		err = d.members(func(key span) error {
			f, err := seen.add(d.text(key))
			if err != nil {
				return err
			}
			switch f {
			case fieldFeatures:
				return d.floats(&d.top.features)
			case fieldSensitive:
				return d.sensitive(&d.top.sensitive)
			case fieldRows:
				return d.rowsArray()
			case fieldModel:
				switch d.peek() {
				case 'n':
					return d.literal("null")
				case '"':
					s, err := d.str()
					d.model = string(d.text(s))
					return err
				}
				return d.typeErr("model", "a string")
			case fieldRaw:
				switch d.peek() {
				case 'n':
					return d.literal("null")
				case 't':
					d.raw = true
					return d.literal("true")
				case 'f':
					return d.literal("false")
				}
				return d.typeErr("raw", "a boolean")
			}
			return fmt.Errorf("unknown field %q", d.text(key))
		})
	default:
		err = d.typeErr("request", "an object")
	}
	if err == nil {
		if d.ws(); d.pos != len(d.b) {
			err = fmt.Errorf("trailing data at offset %d", d.pos)
		}
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// features returns the features slice f holds: nil when absent or
// null, non-nil and empty for [], as encoding/json decodes them.
func (d *wireDecoder) features(f region) []float64 {
	switch {
	case !f.set:
		return nil
	case f.n == 0:
		return []float64{}
	}
	return d.slab[f.off : f.off+f.n : f.off+f.n]
}

// text returns a span's bytes.
func (d *wireDecoder) text(s span) []byte {
	if n := len(d.b); s.off >= n {
		return d.strs[s.off-n : s.end-n]
	}
	return d.b[s.off:s.end]
}

// label gives row's sensitive values, the pairs of r, to l. A key
// given twice keeps its last value, as in a decoded map; keys the
// model does not track are skipped.
func (d *wireDecoder) label(l *serve.Labels, row int, r region) {
	for i, p := range d.pairs[r.off : r.off+r.n] {
		if s := d.slot(l, d.text(p.key), i); s >= 0 {
			l.Set(row, s, d.text(p.val))
		}
	}
}

// slot resolves a sensitive key to its tracked slot, each distinct key
// once per request. Rows usually list their keys in one order, so the
// key at the member's own position is tried first.
func (d *wireDecoder) slot(l *serve.Labels, key []byte, pos int) int {
	if pos < len(d.keys) && bytes.Equal(d.keys[pos].name, key) {
		return d.keys[pos].slot
	}
	for _, k := range d.keys {
		if bytes.Equal(k.name, key) {
			return k.slot
		}
	}
	s := l.Slot(key)
	if len(d.keys) < maxKeys {
		d.keys = append(d.keys, keySlot{name: key, slot: s})
	}
	return s
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
	d.hasRows = true
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
			err := d.members(func(key span) error {
				f, err := seen.add(d.text(key))
				if err != nil {
					return fmt.Errorf("%w in row %d", err, n)
				}
				switch f {
				case fieldFeatures:
					return d.floats(&o.features)
				case fieldSensitive:
					return d.sensitive(&o.sensitive)
				}
				return fmt.Errorf("unknown field %q in row %d", d.text(key), n)
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

// sensitive decodes a sensitive value into r: each member's key and
// value as spans, in order, with no map and no string. A null member
// value is the empty span.
func (d *wireDecoder) sensitive(r *region) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeErr("sensitive", "an object of strings")
	}
	*r = region{off: len(d.pairs), set: true}
	return d.members(func(key span) error {
		p := pair{key: key}
		switch d.peek() {
		case '"':
			v, err := d.str()
			if err != nil {
				return err
			}
			p.val = v
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.typeErr("sensitive", "an object of strings")
		}
		d.pairs = append(d.pairs, p)
		r.n++
		return nil
	})
}

// members walks the object at d.pos, calling member with each key and
// d.pos at the member's value.
func (d *wireDecoder) members(member func(key span) error) error {
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
	if d.pos < len(d.b) && d.b[d.pos] > ' ' {
		return // compact JSON: no whitespace between tokens
	}
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

// number consumes a number matching the JSON grammar and converts it as
// encoding/json does, to strconv.ParseFloat's value: the scan feeds the
// digits to a numparse.Decimal, and only a number it cannot decide is
// handed to strconv. Out-of-range values are rejected.
func (d *wireDecoder) number() (float64, error) {
	b, start, i := d.b, d.pos, d.pos
	var dec numparse.Decimal
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i += dec.IntDigits(b[i:])
	default:
		d.pos = i
		return 0, d.syntaxErr()
	}
	if i < len(b) && b[i] == '.' {
		i++
		n := dec.FracDigits(b[i:])
		if n == 0 {
			d.pos = i
			return 0, d.syntaxErr()
		}
		i += n
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if exp < 10000 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == j {
			d.pos = i
			return 0, d.syntaxErr()
		}
		exp *= esign
	}
	d.pos = i
	if v, ok := dec.Float(neg, exp); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d: %w", b[start:i], start, err)
	}
	return v, nil
}

// plain marks the bytes a string literal holds as they are: ASCII
// other than the quote, the backslash and control characters.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string literal at d.pos and returns its span: in the
// body when the literal is escape-free valid UTF-8, else in d.strs.
func (d *wireDecoder) str() (span, error) {
	b := d.b
	start := d.pos + 1
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			d.pos = i + 1
			return span{start, i}, nil
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	d.pos = len(b)
	return span{}, d.syntaxErr()
}

// unescape finishes a string literal whose bytes from start up to i
// need no rewriting, appending the unescaped string to d.strs. As in
// encoding/json, invalid UTF-8 and unpaired surrogate escapes decode
// to U+FFFD.
func (d *wireDecoder) unescape(start, i int) (span, error) {
	b := d.b
	off := len(d.strs)
	out := append(d.strs, b[start:i]...)
	defer func() { d.strs = out }()
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return span{len(b) + off, len(b) + len(out)}, nil
		case c < ' ':
			d.pos = i
			return span{}, d.syntaxErr()
		case c == '\\':
			if i+1 == len(b) {
				d.pos = len(b)
				return span{}, d.syntaxErr()
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
					return span{}, d.syntaxErr()
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
				return span{}, d.syntaxErr()
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
	return span{}, d.syntaxErr()
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
