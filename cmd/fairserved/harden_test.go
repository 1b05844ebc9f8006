package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// hardTestServer builds a handler over a registry with explicit serve
// options and handler options — the overload/hardening test rig.
func hardTestServer(t *testing.T, path string, so serve.Options, ho handlerOptions) (*httptest.Server, *serve.Registry) {
	t.Helper()
	srv, reg, _ := newTelemetryTestServer(t, path, so, ho)
	return srv, reg
}

// TestBodyLimits: oversized payloads get 413, garbage gets 400, and
// neither ever reaches the assigner.
func TestBodyLimits(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 11)
	ts, reg := hardTestServer(t, path, serve.Options{Workers: 1}, handlerOptions{MaxBody: 512})

	// A syntactically valid body that blows the 512-byte bound.
	big := map[string]any{"features": make([]float64, 4096)}
	resp, data := postJSON(t, ts.URL+"/v1/assign", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d %s, want 413", resp.StatusCode, data)
	}
	var e map[string]string
	if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
		t.Errorf("413 body not a JSON error: %s", data)
	}

	// Garbage bytes get 400, not a 500 or a hang. A stray ] or } after
	// the value is trailing data too, on both endpoints.
	for name, c := range map[string]struct{ path, body string }{
		"not json":                {"/v1/assign", "{not json at all"},
		"trailing data":           {"/v1/assign", `{"features":[1,2,3]} {"x":1}`},
		"unknown field":           {"/v1/assign", `{"features":[1,2,3],"bogus":true}`},
		"trailing bracket":        {"/v1/assign", `{"features":[1,2,3]}]`},
		"trailing brace":          {"/v1/assign", `{"features":[1,2,3]}}`},
		"reload trailing bracket": {"/v1/models/reload", `{"model":"prod"}]`},
		"reload trailing brace":   {"/v1/models/reload", `{"model":"prod"}}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, resp.StatusCode)
		}
	}

	// The reload endpoint is bounded by the same limit.
	resp, err := http.Post(ts.URL+"/v1/models/reload", "application/json",
		bytes.NewReader(append([]byte(`{"path":"`), append(bytes.Repeat([]byte("x"), 2048), []byte(`"}`)...)...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized reload = %d, want 413", resp.StatusCode)
	}

	// None of the rejects touched the model.
	e2, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Assigner().Stats(); st.Requests != 0 {
		t.Errorf("rejected bodies reached the assigner: %+v", st)
	}
	if e2.Generation != 1 {
		t.Errorf("a rejected reload body swapped the model: generation %d", e2.Generation)
	}
}

// TestNonFiniteDistance400: finite features whose squared distance
// overflows get a 400 with a JSON error body, not a 200 with an empty
// one, and nothing is counted or observed for drift.
func TestNonFiniteDistance400(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 16)
	ts, reg := hardTestServer(t, path, serve.Options{Workers: 1}, handlerOptions{})
	attr := m.Sensitive[m.CategoricalAttrs()[0]].Name
	for _, body := range []string{
		`{"features":[1e200,1e200,1e200],"sensitive":{"` + attr + `":"a"}}`,
		`{"rows":[{"features":[0,1,2],"sensitive":{"` + attr + `":"a"}},{"features":[-1e300,0,0]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/assign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || e["error"] == "" {
			t.Errorf("%s = %d %q, want 400 with a JSON error", body, resp.StatusCode, data)
		}
	}
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Assigner().Stats(); st.Requests != 0 || st.Rows != 0 {
		t.Errorf("non-finite requests were counted: %+v", st)
	}
	if d := e.Assigner().Drift(); d[0].ObservedRows != 0 {
		t.Errorf("non-finite requests were observed for drift: %+v", d[0])
	}
}

// TestOverloadResponses wedges the single scoring slot and checks the
// wire contract: queued-over-capacity requests get 429 with a
// Retry-After header while the server stays healthy.
func TestOverloadResponses(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 12)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, reg := hardTestServer(t, path, serve.Options{
		Workers:       1,
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook: func(rows int) {
			select {
			case entered <- struct{}{}:
				<-release // first scorer wedges until released
			default:
			}
		},
	}, handlerOptions{})

	body := []byte(`{"features":[0,1,2]}`)
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		resp.Body.Close()
		return resp
	}

	first := make(chan *http.Response, 1)
	go func() { first <- post() }()
	<-entered // the slot is now held

	// Occupy the one queue spot.
	second := make(chan *http.Response, 1)
	go func() { second <- post() }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		e, _ := reg.Get("prod")
		if st := e.Assigner().Stats(); st.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third arrival is shed.
	resp := post()
	if resp == nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request = %v, want 429", resp)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1s", resp.Header.Get("Retry-After"))
	}

	close(release)
	for _, ch := range []chan *http.Response{first, second} {
		select {
		case r := <-ch:
			if r == nil || r.StatusCode != http.StatusOK {
				t.Errorf("admitted request = %v, want 200", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request never completed")
		}
	}

	// The shed shows up in stats, /v1/models, and /metrics.
	e, _ := reg.Get("prod")
	if st := e.Assigner().Stats(); st.Shed != 1 || st.Requests != 2 {
		t.Errorf("stats after storm = %+v", st)
	}
	_, data := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), `fairserved_shed_total{model="prod"} 1`) {
		t.Errorf("/metrics missing shed counter:\n%s", data)
	}
	_, data = getBody(t, ts.URL+"/v1/models")
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if list.Models[0].Shed != 1 {
		t.Errorf("/v1/models shed = %d, want 1", list.Models[0].Shed)
	}
}

// TestRequestTimeout503: a request that cannot finish inside
// -request-timeout fails with 503 and the deadline shows in metrics.
func TestRequestTimeout503(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 13)
	ts, _ := hardTestServer(t, path, serve.Options{
		Workers:       1,
		MaxConcurrent: 1,
		ScoreHook:     func(rows int) { time.Sleep(300 * time.Millisecond) },
	}, handlerOptions{RequestTimeout: 30 * time.Millisecond})

	resp, data := postJSON(t, ts.URL+"/v1/assign", map[string]any{"features": []float64{0, 1, 2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request = %d %s, want 503", resp.StatusCode, data)
	}
	_, data = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), `fairserved_deadline_total{model="prod"} 1`) {
		t.Errorf("/metrics missing deadline counter:\n%s", data)
	}
}

// TestHardenedFlagValidation audits the new knobs' exit-code-2 paths.
func TestHardenedFlagValidation(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 14)
	m := "-model"
	cases := map[string][]string{
		"queue without concurrent":  {m, path, "-max-queue", "8"},
		"budget without concurrent": {m, path, "-queue-budget", "10ms"},
		"negative concurrent":       {m, path, "-max-concurrent", "-1"},
		"negative queue":            {m, path, "-max-concurrent", "2", "-max-queue", "-1"},
		"negative budget":           {m, path, "-max-concurrent", "2", "-queue-budget", "-1s"},
		"negative request timeout":  {m, path, "-request-timeout", "-1s"},
		"zero max body":             {m, path, "-max-body", "0"},
		"zero shutdown timeout":     {m, path, "-shutdown-timeout", "0s"},
		"negative shutdown timeout": {m, path, "-shutdown-timeout", "-5s"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var buf bytes.Buffer
			if err := serveCtx(ctx, args, &buf); err == nil {
				t.Errorf("serveCtx(%v) accepted a bad invocation", args)
			}
		})
	}
}

// TestDebugMuxIsolation: pprof lives only on the opt-in -debug-addr
// mux; the serving mux must never expose it (profiling endpoints on a
// public port are a DoS and information leak).
func TestDebugMuxIsolation(t *testing.T) {
	dbg := httptest.NewServer(newDebugMux())
	defer dbg.Close()
	resp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}

	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 15)
	ts, _ := hardTestServer(t, path, serve.Options{Workers: 1}, handlerOptions{})
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/heap"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("serving mux %s = %d, want 404", p, resp.StatusCode)
		}
	}
}
