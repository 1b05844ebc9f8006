package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// escapeAll writes s as a JSON string with every byte \u-escaped, so
// the decoder must unescape it before it can match a key or a value.
func escapeAll(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(&b, `\u%04x`, s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// TestDriftReplayCodesMatchMaps sends identical labelled traffic to
// the handler, which decodes sensitive members as spans and observes
// them as codes, and, decoded by encoding/json into maps, to the map
// adapter (Assigner.AssignBatchCtx) of a second Assigner of the same
// model. The traffic holds values training never saw, attributes left
// out, keys given twice, null values, \u-escaped keys and values, keys
// the model does not track, empty and null sensitive objects, and
// single-row requests. Both Assigners must report bit-identical drift
// and assign every row alike.
func TestDriftReplayCodesMatchMaps(t *testing.T) {
	path, ds := adultFixture(t)
	metrics := telemetry.NewRegistry()
	reg := serve.NewRegistry(serve.Options{Workers: 2, Metrics: metrics})
	t.Cleanup(reg.Close)
	e, err := reg.Load("prod", path)
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(reg, metrics, handlerOptions{})
	m, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serve.NewAssigner(m, serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)

	// sensitive renders row i's sensitive object, varied by i.
	sensitive := func(i int) string {
		switch i % 13 {
		case 11:
			return "null"
		case 12:
			return "{}"
		}
		var members []string
		for ai, at := range ds.Sensitive {
			name, value := strconv.Quote(at.Name), strconv.Quote(at.Values[at.Codes[i]])
			switch (i + ai) % 9 {
			case 0:
				continue // attribute left out
			case 1:
				value = strconv.Quote(fmt.Sprintf("unseen-%d", i%4))
			case 2:
				value = "null"
			case 3:
				name, value = escapeAll(at.Name), escapeAll(at.Values[at.Codes[i]])
			case 4:
				members = append(members, name+`:"overwritten"`) // the last value wins
			case 5:
				value = `""`
			}
			members = append(members, name+":"+value)
		}
		members = append(members, `"untracked":"x"`)
		return "{" + strings.Join(members, ",") + "}"
	}
	features := func(i int) string {
		var f []string
		for _, v := range ds.Features[i] {
			f = append(f, strconv.FormatFloat(v, 'g', -1, 64))
		}
		return "[" + strings.Join(f, ",") + "]"
	}
	var bodies []string
	for lo, n := 0, 1; lo < ds.N(); lo, n = lo+n, n+7 {
		hi := min(lo+n, ds.N())
		if n == 1 {
			bodies = append(bodies, fmt.Sprintf(`{"features":%s,"sensitive":%s,"raw":true}`, features(lo), sensitive(lo)))
			continue
		}
		var rows []string
		for i := lo; i < hi; i++ {
			rows = append(rows, fmt.Sprintf(`{"features":%s,"sensitive":%s}`, features(i), sensitive(i)))
		}
		bodies = append(bodies, fmt.Sprintf(`{"rows":[%s],"raw":true,"model":"prod"}`, strings.Join(rows, ",")))
	}

	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body.Bytes())
		}
		req, _, err := oracleDecode([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		rows := req.Rows
		if req.Features != nil {
			rows = []assignRow{{Features: req.Features, Sensitive: req.Sensitive}}
		}
		feats := make([][]float64, len(rows))
		sens := make([]map[string]string, len(rows))
		for i, r := range rows {
			m.Scaling.Apply(r.Features)
			feats[i], sens[i] = r.Features, r.Sensitive
		}
		clusters, dists, err := ref.AssignBatchCtx(context.Background(), feats, sens)
		if err != nil {
			t.Fatal(err)
		}
		want := appendAssignResponse(nil, "prod", e.Generation, clusters, dists)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("handler answered\n%s\nthe map adapter\n%s", rec.Body.Bytes(), want)
		}
	}
	got, want := fmt.Sprintf("%#v", e.Assigner().Drift()), fmt.Sprintf("%#v", ref.Drift())
	if got != want {
		t.Errorf("drift after the code path\n%s\nafter the map adapter\n%s", got, want)
	}
	if reps := ref.Drift(); len(reps) == 0 || reps[0].ObservedRows == 0 {
		t.Errorf("the replay observed nothing: %+v", reps)
	}
}
