package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// assignResponse is the /v1/assign response schema: appendAssignResponse
// must write exactly json.Marshal's bytes for it.
type assignResponse struct {
	Model       string       `json:"model"`
	Generation  int          `json:"generation"`
	Assignments []assignment `json:"assignments"`
}

type assignment struct {
	Cluster int `json:"cluster"`
	// Distance is the squared Euclidean distance to the winning
	// centroid in the trained feature space.
	Distance float64 `json:"distance"`
}

// assignRow is one query row of the /v1/assign request schema.
type assignRow struct {
	Features []float64 `json:"features"`
	// Sensitive optionally carries the row's sensitive values (by
	// attribute name) for the drift tracker; it never influences the
	// assignment.
	Sensitive map[string]string `json:"sensitive,omitempty"`
}

// assignRequest is the /v1/assign body the codec implements: either
// the single form (features at top level) or the batch form (rows).
// encoding/json decoding into it is the oracle; the handler never
// builds one.
type assignRequest struct {
	Model string `json:"model,omitempty"`
	// Raw asks the server to apply the artifact's feature scaling
	// (min-max) to each row before assignment.
	Raw bool `json:"raw,omitempty"`

	Features  []float64         `json:"features,omitempty"`
	Sensitive map[string]string `json:"sensitive,omitempty"`

	Rows []assignRow `json:"rows,omitempty"`
}

// decodeAssign decodes body with a fresh wireDecoder and reads the
// result back as an assignRequest: each sensitive object's spans as a
// map, a repeated key keeping its last value.
func decodeAssign(body []byte) (assignRequest, error) {
	d := new(wireDecoder)
	if err := d.decode(body); err != nil {
		return assignRequest{}, err
	}
	strmap := func(r region) map[string]string {
		if !r.set {
			return nil
		}
		m := map[string]string{}
		for _, p := range d.pairs[r.off : r.off+r.n] {
			m[string(d.text(p.key))] = string(d.text(p.val))
		}
		return m
	}
	req := assignRequest{
		Model:     d.model,
		Raw:       d.raw,
		Features:  d.features(d.top.features),
		Sensitive: strmap(d.top.sensitive),
	}
	if d.hasRows {
		req.Rows = make([]assignRow, len(d.rows))
		for i, o := range d.rows {
			req.Rows[i] = assignRow{Features: d.features(o.features), Sensitive: strmap(o.sensitive)}
		}
	}
	return req, nil
}

// oracleDecode is the reflection decode /v1/assign used before the
// byte-level codec, kept as the reference decodeAssign must match. rest
// is what follows the decoded value.
func oracleDecode(body []byte) (req assignRequest, rest []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, err
	}
	rest = body[dec.InputOffset():]
	if dec.More() {
		return req, rest, fmt.Errorf("trailing data")
	}
	return req, rest, nil
}

// adultFixture trains an Adult-shaped model (8 features, 5 sensitive
// attributes) with an identity min-max Scaling, so "raw" requests run
// the scaling path without changing the answers, and saves it.
func adultFixture(tb testing.TB) (path string, ds *dataset.Dataset) {
	tb.Helper()
	ds = testfix.Adult(1, 512)
	res, err := core.Run(ds, core.Config{K: 15, AutoLambda: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "test", Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m.Scaling = &model.Scaling{Kind: "minmax", Mins: make([]float64, ds.Dim()), Ranges: make([]float64, ds.Dim())}
	for j := range m.Scaling.Ranges {
		m.Scaling.Ranges[j] = 1
	}
	path = filepath.Join(tb.TempDir(), "adult.json")
	if err := model.Save(path, m); err != nil {
		tb.Fatal(err)
	}
	return path, ds
}

// adultHandler serves the adult fixture as model "prod".
func adultHandler(tb testing.TB, ho handlerOptions) (http.Handler, *dataset.Dataset) {
	tb.Helper()
	path, ds := adultFixture(tb)
	metrics := telemetry.NewRegistry()
	reg := serve.NewRegistry(serve.Options{Workers: 2, Metrics: metrics})
	tb.Cleanup(reg.Close)
	if _, err := reg.Load("prod", path); err != nil {
		tb.Fatal(err)
	}
	return newHandler(reg, metrics, ho), ds
}

// batchBody encodes the first n rows of ds as a raw batch request,
// with each row's sensitive values when labelled.
func batchBody(tb testing.TB, ds *dataset.Dataset, n int, labelled bool) []byte {
	tb.Helper()
	rows := make([]assignRow, n)
	for i := range rows {
		rows[i].Features = ds.Features[i%ds.N()]
		if labelled {
			rows[i].Sensitive = map[string]string{}
			for _, a := range ds.Sensitive {
				rows[i].Sensitive[a.Name] = a.Values[a.Codes[i%ds.N()]]
			}
		}
	}
	body, err := json.Marshal(assignRequest{Raw: true, Rows: rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// repeatsField reports whether the JSON value in body, which must be
// valid, gives a struct field twice in the request object or in one of
// its rows. It walks json.Decoder tokens independently of decodeAssign
// and matches keys to field names case-insensitively, as encoding/json
// does.
func repeatsField(body []byte) bool {
	const (
		other = iota
		request
		rows // the request's rows array
		row
	)
	dec := json.NewDecoder(bytes.NewReader(body))
	repeated := false
	// walk consumes one value of the given kind.
	var walk func(kind int) error
	walk = func(kind int) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('['):
			elem := other
			if kind == rows {
				elem = row
			}
			for dec.More() {
				if err := walk(elem); err != nil {
					return err
				}
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return err
				}
				name := ""
				for _, f := range []string{"model", "raw", "features", "sensitive", "rows"} {
					if (kind == request || kind == row) && strings.EqualFold(tok.(string), f) {
						name = f
					}
				}
				if name != "" {
					repeated = repeated || seen[name]
					seen[name] = true
				}
				next := other
				if kind == request && name == "rows" {
					next = rows
				}
				if err := walk(next); err != nil {
					return err
				}
			}
		default:
			return nil
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return walk(request) == nil && repeated
}

// FuzzAssignBody holds decodeAssign to encoding/json: for any body the
// two agree on accept/reject and decode reflect.DeepEqual requests.
// There are two intended differences, each checked rather than
// trusted. A struct field given twice in one object, which
// encoding/json decodes on top of the first, is rejected; repeatsField
// confirms the repeat. And json.Decoder.More reports false before ']'
// or '}', so the oracle lets a stray ']' or '}' after the value
// through, while decodeAssign rejects any non-whitespace there; the
// value without that byte must still decode to what the oracle
// decoded. The same bytes then go through the real handler, which must
// answer 200, 400, 404 or 413 only (400 for a repeated field), and
// every 200 must be a parseable response with one assignment per row.
func FuzzAssignBody(f *testing.F) {
	h, _ := adultHandler(f, handlerOptions{MaxBody: 1 << 20})
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeAssign(body)
		want, rest, oerr := oracleDecode(body)
		value := body[:len(body)-len(rest)]
		repeated := false
		switch {
		case oerr != nil:
			if err == nil {
				t.Fatalf("decodeAssign(%q) accepted a body encoding/json rejects: %v", body, oerr)
			}
		case repeatsField(value):
			repeated = true
			if err == nil {
				t.Fatalf("decodeAssign(%q) accepted a repeated field", body)
			}
		case err == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeAssign(%q)\n got %#v\nwant %#v", body, got, want)
			}
		default:
			if r := bytes.TrimLeft(rest, " \t\r\n"); len(r) == 0 || (r[0] != ']' && r[0] != '}') {
				t.Fatalf("decodeAssign(%q) rejected a body encoding/json accepts: %v", body, err)
			}
			// Only the stray byte is excused: the value before it must
			// decode, and to what the oracle decoded.
			if got, err := decodeAssign(value); err != nil {
				t.Fatalf("decodeAssign(%q) rejected the value encoding/json accepts: %v", value, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeAssign(%q)\n got %#v\nwant %#v", value, got, want)
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp assignResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not parse: %v\n%s", err, rec.Body.Bytes())
			}
			rows := len(got.Rows)
			if got.Features != nil {
				rows = 1
			}
			if len(resp.Assignments) != rows {
				t.Fatalf("200 body has %d assignments for %d rows", len(resp.Assignments), rows)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			if repeated && rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d for a repeated field, want 400", rec.Code)
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// TestAssignResponseBytes: the response encoder writes what
// json.Encoder wrote before it, minus the indentation, across the
// float format's exponent cutoffs and every string escape class.
func TestAssignResponseBytes(t *testing.T) {
	dists := []float64{0, 5e-324, 1e-7, 1e-6, 9.99e-7, 0.1, 1.5, 123456.789, 1e20, 1e21, math.MaxFloat64, math.Copysign(0, -1), -2.5e-8}
	clusters := make([]int, len(dists))
	for i := range clusters {
		clusters[i] = i * 7
	}
	names := []string{"prod", `a"b`, `a\b`, "<script>", "a&b", "ctl\x01\x1f", "\b\f\n\r\t", "line\u2028para\u2029", "bad\xffutf8", "\u00fcn\u00efc\u00f6d\u00e9\U0001F600", ""}
	for _, name := range names {
		for _, n := range []int{0, 1, len(dists)} {
			resp := assignResponse{Model: name, Generation: 3, Assignments: make([]assignment, n)}
			for i := range resp.Assignments {
				resp.Assignments[i] = assignment{Cluster: clusters[i], Distance: dists[i]}
			}
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := appendAssignResponse(nil, name, 3, clusters[:n], dists[:n]); !bytes.Equal(got, want) {
				t.Errorf("model %q, %d rows:\n got %s\nwant %s", name, n, got, want)
			}
		}
	}
}

// TestReadBodyPresize: a request that declares a body near -max-body
// but sends only a few bytes allocates in proportion to what arrived,
// not to its Content-Length, and is still answered 400.
func TestReadBodyPresize(t *testing.T) {
	h, _ := adultHandler(t, handlerOptions{})
	body := []byte(`{"features":[1`)
	req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body))
	req.ContentLength = defaultMaxBody
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
	}
	const limit = 4 * maxPresize
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Errorf("a %d-byte body declared as %d bytes allocated %d bytes, want <= %d", len(body), req.ContentLength, n, limit)
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count sees the handler and not a recorder's buffers.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestAssignHandlerAllocs pins the /v1/assign allocation budget: a
// 512-row labelled raw request may allocate at most 0.25 times per
// row. The sensitive values are spans resolved to codes, not maps, and
// the decoder's slabs are pooled, so the request costs a fixed handful
// of allocations (about 10). A map per row cost 2.37 per row;
// reflection decoding and indented encoding about 23.
func TestAssignHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	h, ds := adultHandler(t, handlerOptions{})
	const rows = 512
	body := batchBody(t, ds, rows, true)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/assign", rd)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 4; i++ {
		serve()
	}
	perRow := testing.AllocsPerRun(20, serve) / rows
	t.Logf("allocs per row = %.2f", perRow)
	if perRow > 0.25 {
		t.Errorf("allocs per row = %.2f, want <= 0.25", perRow)
	}
}

// BenchmarkHTTPAssign measures /v1/assign end to end through the real
// handler over loopback HTTP with a keep-alive client: unlabelled
// batches of 1 and 64 rows, and 512-row batches carrying five
// sensitive values each. ns/row is wall time per row; allocs/op counts
// client and server together, since both run in this process.
func BenchmarkHTTPAssign(b *testing.B) {
	h, ds := adultHandler(b, handlerOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()
	for _, c := range []struct {
		rows     int
		labelled bool
	}{{1, false}, {64, false}, {512, true}} {
		name := fmt.Sprintf("batch=%d", c.rows)
		if c.labelled {
			name += "/labelled"
		}
		body := batchBody(b, ds, c.rows, c.labelled)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(srv.URL+"/v1/assign", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v", resp.StatusCode, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows), "ns/row")
		})
	}
}
