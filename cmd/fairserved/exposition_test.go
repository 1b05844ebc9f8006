package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestMetricsExposition pins the whole /metrics exposition of one
// model after a fixed script with no hot swap: labelled, unlabelled
// and mixed requests, then one shed and one deadline on a 1-slot gate.
// It checks the exact set of HELP and TYPE lines, the exact set of
// series with their label sets, every counter and gauge value, and
// each histogram's _count. Bucket lines are matched by name and labels
// only; _sum lines only by presence, since both hold timings.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 7)

	// The hook parks exactly one scoring task once armed, so that
	// request holds the gate's only slot until hold is closed.
	var armed atomic.Bool
	entered := make(chan struct{})
	hold := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	defer release()
	srv, reg, _ := newTelemetryTestServer(t, path, serve.Options{
		Workers:       1,
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook: func(int) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-hold
			}
		},
	}, handlerOptions{})

	ai := m.CategoricalAttrs()[0]
	attr := m.Sensitive[ai]
	feat := func(i int) []float64 {
		return []float64{float64(i%5) - 2, float64(i % 3), 0.5 * float64(i)}
	}
	type row struct {
		x     []float64
		value string // "" = unlabelled
	}
	type observation struct {
		cluster int
		value   string
	}
	var (
		obs            []observation
		okReqs, okRows int
	)
	send := func(single bool, rows ...row) {
		t.Helper()
		sens := func(r row) map[string]string { return map[string]string{attr.Name: r.value} }
		body := map[string]any{}
		if single {
			body["features"] = rows[0].x
			if rows[0].value != "" {
				body["sensitive"] = sens(rows[0])
			}
		} else {
			rs := make([]map[string]any, len(rows))
			for i, r := range rows {
				rs[i] = map[string]any{"features": r.x}
				if r.value != "" {
					rs[i]["sensitive"] = sens(r)
				}
			}
			body["rows"] = rs
		}
		resp, data := postJSON(t, srv.URL+"/v1/assign", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign: %d %s", resp.StatusCode, data)
		}
		var out assignResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Assignments) != len(rows) {
			t.Fatalf("%d assignments for %d rows", len(out.Assignments), len(rows))
		}
		for i, r := range rows {
			if r.value != "" {
				obs = append(obs, observation{out.Assignments[i].Cluster, r.value})
			}
		}
		okReqs++
		okRows += len(rows)
	}

	// Labelled batch, including one value training never saw.
	var labelled []row
	for i := 0; i < 6; i++ {
		labelled = append(labelled, row{feat(i), attr.Values[i%len(attr.Values)]})
	}
	labelled = append(labelled, row{feat(6), "unseen"})
	send(false, labelled...)
	send(false, row{feat(7), ""}, row{feat(8), ""}, row{feat(9), ""})
	send(true, row{feat(10), attr.Values[0]})
	send(true, row{feat(11), ""})
	send(false, row{feat(12), attr.Values[len(attr.Values)-1]}, row{feat(13), ""},
		row{feat(14), attr.Values[0]}, row{feat(15), ""})

	// One request holds the slot, one waits in the 1-deep queue, a
	// third is shed; the queued one is then canceled (a deadline) and
	// the holder completes.
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Assigner()
	armed.Store(true)
	heldErr := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatchCtx(context.Background(), [][]float64{feat(16), feat(17)}, nil)
		heldErr <- err
	}()
	<-entered
	qctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queuedErr := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatchCtx(qctx, [][]float64{feat(18)}, nil)
		queuedErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); a.Stats().Queued != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
	}
	if resp, data := postJSON(t, srv.URL+"/v1/assign", map[string]any{"features": feat(19)}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", resp.StatusCode, data)
	}
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request: %v, want context.Canceled", err)
	}
	release()
	if err := <-heldErr; err != nil {
		t.Fatalf("held request: %v", err)
	}
	okReqs++
	okRows += 2

	// Oracle for the drift gauge: the largest total-variation distance
	// between a cluster's observed value mix and its training mix.
	mix := map[int]map[string]float64{}
	for _, o := range obs {
		if mix[o.cluster] == nil {
			mix[o.cluster] = map[string]float64{}
		}
		mix[o.cluster][o.value]++
	}
	wantTV := 0.0
	for c, counts := range mix {
		total := 0.0
		for _, n := range counts {
			total += n
		}
		train := map[string]float64{}
		for code, v := range attr.Values {
			train[v] = m.Clusters[c].Distributions[ai][code]
		}
		tv := 0.0
		for v, p := range train {
			tv += math.Abs(counts[v]/total - p)
		}
		for v, n := range counts {
			if _, ok := train[v]; !ok {
				tv += n / total
			}
		}
		wantTV = math.Max(wantTV, tv/2)
	}

	_, data := getBody(t, srv.URL+"/metrics")
	text := string(data)

	var meta []string
	series := map[string]string{}
	buckets := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			meta = append(meta, line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, value := line[:i], line[i+1:]
		if strings.Contains(name, "_bucket{") {
			j := strings.Index(name, `le="`)
			if j < 0 {
				t.Fatalf("bucket line without le: %q", line)
			}
			k := strings.IndexByte(name[j+4:], '"')
			base := name[:j] + name[j+4+k+1:]
			base = strings.Replace(strings.Replace(base, ",}", "}", 1), "{}", "", 1)
			buckets[base] = true
			continue
		}
		if _, dup := series[name]; dup {
			t.Errorf("series %s rendered twice", name)
		}
		series[name] = value
	}

	families := []struct{ name, kind, help string }{
		{"fairserved_deadline_total", "counter", "Requests failed by their deadline per model."},
		{"fairserved_drift_max_tv", "gauge", "Max total-variation distance between observed and training cluster mixes."},
		{"fairserved_drift_observed_rows", "counter", "Rows with sensitive values observed per attribute."},
		{"fairserved_inflight", "gauge", "Admitted requests currently scoring per model."},
		{"fairserved_model_generation", "gauge", "Hot-swap generation per model name."},
		{"fairserved_queue_depth", "gauge", "Requests waiting for an admission slot per model."},
		{"fairserved_request_latency_seconds", "histogram", "Accepted-request latency since the model name was first installed."},
		{"fairserved_request_stage_seconds", "histogram", "Per-stage request latency (admission wait, queue residency, micro-batch scoring, total), OK requests only."},
		{"fairserved_requests_total", "counter", "Assignment requests served per model."},
		{"fairserved_rows_total", "counter", "Feature vectors labelled per model."},
		{"fairserved_shed_total", "counter", "Requests rejected by admission control per model."},
	}
	var wantMeta []string
	for _, f := range families {
		wantMeta = append(wantMeta, "# HELP "+f.name+" "+f.help, "# TYPE "+f.name+" "+f.kind)
	}
	sort.Strings(meta)
	sort.Strings(wantMeta)
	if strings.Join(meta, "\n") != strings.Join(wantMeta, "\n") {
		t.Errorf("HELP/TYPE lines:\n%s\nwant:\n%s", strings.Join(meta, "\n"), strings.Join(wantMeta, "\n"))
	}

	const ml = `{model="prod"}`
	al := fmt.Sprintf(`{attribute=%q,model="prod"}`, attr.Name)
	itoa := strconv.Itoa
	const anyValue = "*" // timing sums: presence only
	want := map[string]string{
		"fairserved_deadline_total" + ml:                "1",
		"fairserved_drift_max_tv" + al:                  "tv",
		"fairserved_drift_observed_rows" + al:           itoa(len(obs)),
		"fairserved_inflight" + ml:                      "0",
		"fairserved_model_generation" + ml:              "1",
		"fairserved_queue_depth" + ml:                   "0",
		"fairserved_request_latency_seconds_count" + ml: itoa(okReqs),
		"fairserved_request_latency_seconds_sum" + ml:   anyValue,
		"fairserved_requests_total" + ml:                itoa(okReqs),
		"fairserved_rows_total" + ml:                    itoa(okRows),
		"fairserved_shed_total" + ml:                    "1",
	}
	wantBuckets := map[string]bool{"fairserved_request_latency_seconds_bucket" + ml: true}
	for _, stage := range []string{"admission", "queue", "score", "total"} {
		sl := fmt.Sprintf(`{model="prod",stage=%q}`, stage)
		want["fairserved_request_stage_seconds_count"+sl] = itoa(okReqs)
		want["fairserved_request_stage_seconds_sum"+sl] = anyValue
		wantBuckets["fairserved_request_stage_seconds_bucket"+sl] = true
	}

	for name, w := range want {
		got, ok := series[name]
		switch {
		case !ok:
			t.Errorf("missing series %s", name)
		case w == anyValue:
			if _, err := strconv.ParseFloat(got, 64); err != nil {
				t.Errorf("%s = %q, not a number", name, got)
			}
		case w == "tv":
			v, err := strconv.ParseFloat(got, 64)
			if err != nil || math.Abs(v-wantTV) > 1e-12 {
				t.Errorf("%s = %s, want %v", name, got, wantTV)
			}
		case got != w:
			t.Errorf("%s = %s, want %s", name, got, w)
		}
	}
	for name := range series {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected series %s", name)
		}
	}
	for name := range wantBuckets {
		if !buckets[name] {
			t.Errorf("missing bucket lines for %s", name)
		}
	}
	for name := range buckets {
		if !wantBuckets[name] {
			t.Errorf("unexpected bucket lines for %s", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
