package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// saveFixtureModel trains a tiny FairKM model and saves its artifact,
// returning the path and the in-memory model.
func saveFixtureModel(t *testing.T, dir string, seed int64) (string, *model.Model) {
	t.Helper()
	ds := testfix.Synth(seed, 200, 3, 1, 0)
	res, err := core.Run(ds, core.Config{K: 3, AutoLambda: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "test", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("m%d.json", seed))
	if err := model.Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path, m
}

// newTestServer loads one artifact into a registry-backed handler,
// with the full telemetry wiring (metric registry + request tracers)
// the real serveCtx uses.
func newTestServer(t *testing.T, path string) (*httptest.Server, *serve.Registry) {
	t.Helper()
	srv, reg, _ := newTelemetryTestServer(t, path, serve.Options{Workers: 2, BatchSize: 16}, handlerOptions{})
	return srv, reg
}

// newTelemetryTestServer is newTestServer with explicit serve/handler
// options, also exposing the metric registry.
func newTelemetryTestServer(t *testing.T, path string, so serve.Options, ho handlerOptions) (*httptest.Server, *serve.Registry, *telemetry.Registry) {
	t.Helper()
	so.Metrics = telemetry.NewRegistry()
	reg := serve.NewRegistry(so)
	if _, err := reg.Load("prod", path); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(reg, so.Metrics, ho))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return srv, reg, so.Metrics
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestAssignEndpoint(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 1)
	ts, _ := newTestServer(t, path)

	x := []float64{0.1, -0.4, 2.0}
	want := m.Assign(x)

	// Single form.
	resp, data := postJSON(t, ts.URL+"/v1/assign", map[string]any{"features": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single assign: %d %s", resp.StatusCode, data)
	}
	var single assignResponse
	if err := json.Unmarshal(data, &single); err != nil {
		t.Fatal(err)
	}
	if len(single.Assignments) != 1 || single.Assignments[0].Cluster != want {
		t.Errorf("single assign = %+v, want cluster %d", single, want)
	}
	if single.Model != "prod" || single.Generation != 1 {
		t.Errorf("response metadata = %q gen %d", single.Model, single.Generation)
	}

	// Batch form with sensitive values (drift fodder).
	rows := []map[string]any{
		{"features": []float64{0, 0, 0}, "sensitive": map[string]string{"cat0": "a"}},
		{"features": x, "sensitive": map[string]string{"cat0": "b"}},
		{"features": []float64{5, 5, 5}},
	}
	resp, data = postJSON(t, ts.URL+"/v1/assign", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch assign: %d %s", resp.StatusCode, data)
	}
	var batch assignResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Assignments) != 3 {
		t.Fatalf("batch returned %d assignments", len(batch.Assignments))
	}
	if batch.Assignments[1].Cluster != want {
		t.Errorf("batch row 1 got cluster %d, want %d", batch.Assignments[1].Cluster, want)
	}

	// Bad requests error cleanly.
	for name, body := range map[string]any{
		"both forms":    map[string]any{"features": x, "rows": rows},
		"neither form":  map[string]any{},
		"unknown model": map[string]any{"model": "nope", "features": x},
		"bad dim":       map[string]any{"features": []float64{1}},
		"unknown field": map[string]any{"features": x, "extra": 1},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/assign", body)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: accepted: %s", name, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", name, data)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/v1/assign"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/assign = %d, want 405", resp.StatusCode)
	}
}

func TestModelsAndMetricsEndpoints(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 2)
	ts, _ := newTestServer(t, path)

	// Generate some traffic first.
	attr := m.Sensitive[m.CategoricalAttrs()[0]].Name
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/assign", map[string]any{
			"features":  []float64{float64(i), 0, 1},
			"sensitive": map[string]string{attr: "a"},
		})
	}

	resp, data := getBody(t, ts.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/models: %d", resp.StatusCode)
	}
	var list struct {
		Default string      `json:"default"`
		Models  []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if list.Default != "prod" || len(list.Models) != 1 {
		t.Fatalf("models list = %s", data)
	}
	mi := list.Models[0]
	if mi.Requests != 5 || mi.Rows != 5 || mi.K != m.K || !mi.Default {
		t.Errorf("model info = %+v", mi)
	}
	if len(mi.Drift) == 0 || mi.Drift[0].ObservedRows != 5 {
		t.Errorf("drift info = %+v", mi.Drift)
	}

	resp, data = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", got)
	}
	text := string(data)
	for _, want := range []string{
		`fairserved_requests_total{model="prod"} 5`,
		`fairserved_rows_total{model="prod"} 5`,
		"# TYPE fairserved_request_latency_seconds histogram",
		`fairserved_request_latency_seconds_bucket{model="prod",le="+Inf"} 5`,
		`fairserved_request_latency_seconds_count{model="prod"} 5`,
		`fairserved_request_stage_seconds_count{model="prod",stage="total"} 5`,
		`fairserved_request_stage_seconds_count{model="prod",stage="admission"} 5`,
		`fairserved_model_generation{model="prod"} 1`,
		// Label keys render in sorted order: attribute before model.
		`fairserved_drift_observed_rows{attribute="` + attr + `",model="prod"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// The flight recorder saw the same five requests.
	resp, data = getBody(t, ts.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	var traces struct {
		Traces []map[string]any `json:"traces"`
	}
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatalf("/debug/traces body: %v\n%s", err, data)
	}
	if len(traces.Traces) != 5 {
		t.Errorf("/debug/traces has %d traces, want 5:\n%s", len(traces.Traces), data)
	}
	for _, tr := range traces.Traces {
		if tr["model"] != "prod" || tr["outcome"] != "ok" {
			t.Errorf("trace = %v", tr)
		}
	}

	resp, data = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("/healthz = %d %s", resp.StatusCode, data)
	}
}

// TestReloadEndpoint hot-swaps the artifact file under the server and
// checks traffic flips to the new model while the old one finishes.
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	path, m1 := saveFixtureModel(t, dir, 3)
	ts, _ := newTestServer(t, path)

	// A probe row the two models label differently would be ideal, but
	// generation + lambda are model-identity enough for the endpoint
	// test (determinism is covered in internal/serve).
	pathB, m2 := saveFixtureModel(t, dir, 4)

	resp, data := postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"model": "prod", "path": pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, data)
	}
	var rr map[string]any
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr["generation"].(float64) != 2 || rr["path"].(string) != pathB {
		t.Errorf("reload response = %s", data)
	}

	resp, data = getBody(t, ts.URL+"/v1/models")
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if got := list.Models[0].Provenance.Seed; got != m2.Provenance.Seed || got == m1.Provenance.Seed {
		t.Errorf("after reload provenance seed = %v (old %v, new %v)", got, m1.Provenance.Seed, m2.Provenance.Seed)
	}
	if list.Models[0].Generation != 2 {
		t.Errorf("after reload generation = %d, want 2", list.Models[0].Generation)
	}

	// Reload of an unknown model 404s/400s without damage.
	resp, _ = postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"model": "ghost"})
	if resp.StatusCode == http.StatusOK {
		t.Error("reload of unknown model succeeded")
	}

	// Reload with a broken artifact leaves the old model serving.
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"model": "prod", "path": bad})
	if resp.StatusCode == http.StatusOK {
		t.Error("reload of broken artifact succeeded")
	}
	resp, data = postJSON(t, ts.URL+"/v1/assign", map[string]any{"features": []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("assign after failed reload: %d %s", resp.StatusCode, data)
	}
}

// TestMetricsAcrossReload pins what /metrics and /v1/models report
// across a hot swap. The counters, the latency histogram and the stage
// histograms are instruments of the model name, which the reloaded
// Assigner keeps counting into, so they count every request. The
// generation gauge and the drift series describe the live generation:
// generation 2, and only the rows observed since the swap.
func TestMetricsAcrossReload(t *testing.T) {
	const before, after = 4, 3
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 5)
	ts, _ := newTestServer(t, path)
	pathB, _ := saveFixtureModel(t, dir, 6)
	attr := m.Sensitive[m.CategoricalAttrs()[0]].Name
	assign := func(n int) {
		for i := 0; i < n; i++ {
			resp, data := postJSON(t, ts.URL+"/v1/assign", map[string]any{
				"features":  []float64{float64(i), 0, 1},
				"sensitive": map[string]string{attr: "a"},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("assign: %d %s", resp.StatusCode, data)
			}
		}
	}

	assign(before)
	if resp, data := postJSON(t, ts.URL+"/v1/models/reload", map[string]any{"model": "prod", "path": pathB}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, data)
	}
	assign(after)

	_, data := getBody(t, ts.URL+"/metrics")
	text := string(data)
	for _, want := range []string{
		fmt.Sprintf(`fairserved_request_stage_seconds_count{model="prod",stage="total"} %d`, before+after),
		fmt.Sprintf(`fairserved_requests_total{model="prod"} %d`, before+after),
		fmt.Sprintf(`fairserved_request_latency_seconds_count{model="prod"} %d`, before+after),
		fmt.Sprintf(`fairserved_drift_observed_rows{attribute="%s",model="prod"} %d`, attr, after),
		`fairserved_model_generation{model="prod"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	_, data = getBody(t, ts.URL+"/v1/models")
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Requests != before+after || list.Models[0].Generation != 2 {
		t.Errorf("/v1/models after reload = %s, want %d requests at generation 2", data, before+after)
	}
}

// TestServeCtxEndToEnd boots the real server on an ephemeral port,
// exercises it over TCP, then cancels the context and expects a
// graceful shutdown — the CI smoke path.
func TestServeCtxEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 5)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncLineWriter{addr: make(chan string, 1)}
	done := make(chan error, 1)
	go func() { done <- serveCtx(ctx, []string{"-model", "prod=" + path, "-addr", "127.0.0.1:0"}, out) }()

	var base string
	select {
	case addr := <-out.addr:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never reported its address")
	}

	if resp, data := getBody(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, base+"/v1/assign", map[string]any{"features": []float64{0, 1, 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/assign = %d %s", resp.StatusCode, data)
	}
	if resp, data := getBody(t, base+"/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(data), "fairserved_requests_total") ||
		!strings.Contains(string(data), "fairserved_request_stage_seconds_bucket") {
		t.Fatalf("/metrics = %d %s", resp.StatusCode, data)
	}
	if resp, data := getBody(t, base+"/debug/traces"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(data), `"outcome"`) {
		t.Fatalf("/debug/traces = %d %s", resp.StatusCode, data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("no shutdown log:\n%s", out.String())
	}
}

func TestServedValidationAudit(t *testing.T) {
	cases := map[string][]string{
		"no models":        {},
		"missing artifact": {"-model", "no/such/model.json"},
		"unknown flag":     {"-zap"},
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

// syncLineWriter buffers server output and signals the listen address.
type syncLineWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *syncLineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if s := w.buf.String(); strings.Contains(s, "listening on http://") {
			rest := s[strings.Index(s, "listening on http://")+len("listening on http://"):]
			if i := strings.IndexAny(rest, " \n"); i > 0 {
				w.addr <- rest[:i]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *syncLineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// promHistogramQuantile computes the nearest-rank quantile from the
// cumulative `le` buckets of one histogram series in a Prometheus
// text exposition.
func promHistogramQuantile(t *testing.T, text, family, labels string, q float64) time.Duration {
	t.Helper()
	var n uint64
	countPrefix := family + "_count{" + labels + "} "
	bucketPrefix := family + "_bucket{" + labels + ",le=\""
	type bucket struct {
		le  float64
		cum uint64
	}
	var buckets []bucket
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, countPrefix); ok {
			c, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad _count line %q: %v", line, err)
			}
			n = c
		}
		if rest, ok := strings.CutPrefix(line, bucketPrefix); ok {
			leStr, cumStr, ok := strings.Cut(rest, "\"} ")
			if !ok {
				t.Fatalf("bad _bucket line %q", line)
			}
			if leStr == "+Inf" {
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			cum, err := strconv.ParseUint(cumStr, 10, 64)
			if err != nil {
				t.Fatalf("bad count in %q: %v", line, err)
			}
			buckets = append(buckets, bucket{le, cum})
		}
	}
	if n == 0 || len(buckets) == 0 {
		t.Fatalf("no %s{%s} histogram in exposition:\n%s", family, labels, text)
	}
	rank := uint64(math.Ceil(q * float64(n)))
	for _, b := range buckets {
		if b.cum >= rank {
			return time.Duration(b.le * float64(time.Second))
		}
	}
	t.Fatalf("rank %d beyond the last finite bucket (n=%d)", rank, n)
	return 0
}

// TestMetricsP99AgreesWithLoad is the end-to-end acceptance check for
// the histogram-backed /metrics: an open-loop fairload run against the
// in-process registry must measure the same accepted-request p99 the
// server's exposed latency histogram reports, within the histogram's
// ≤1/32 relative bucket quantization. Both sides wrap the identical
// AssignBatchCtx call, so queueing waits land in both distributions;
// the 1ms ScoreHook floor keeps measurement epsilon far below bucket
// width.
func TestMetricsP99AgreesWithLoad(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 21)
	ts, reg, _ := newTelemetryTestServer(t, path, serve.Options{
		Workers:   4,
		ScoreHook: func(rows int) { time.Sleep(time.Millisecond) },
	}, handlerOptions{})

	w, err := load.Build(load.Config{
		Rate: 1000, Requests: 300, Seed: 9, Dim: m.Dim(), MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := load.Run(context.Background(), w, &load.RegistryTarget{Registry: reg})
	if rep.OK != 300 {
		t.Fatalf("load run: %d/%d OK (first error: %s)", rep.OK, rep.Sent, rep.FirstError)
	}

	_, data := getBody(t, ts.URL+"/metrics")
	served := promHistogramQuantile(t, string(data),
		"fairserved_request_latency_seconds", `model="prod"`, 0.99)
	measured := rep.Latency.P99
	if measured <= 0 {
		t.Fatalf("load report p99 = %v", measured)
	}
	if diff := math.Abs(float64(served-measured)) / float64(measured); diff > 1.0/32 {
		t.Errorf("/metrics p99 %v vs fairload p99 %v: %.2f%% apart, want <= 1/32 (~3.1%%)",
			served, measured, diff*100)
	}
}
