package serve

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// TestRegistryMetricsAcrossInstall: a re-installed name keeps its
// counters, latency histogram and tracer, while its generation gauge
// and drift series follow the entry Install publishes. Scrapes run
// through every install, so under -race this also covers the
// Install-time rebind of the pull series against a concurrent scrape.
func TestRegistryMetricsAcrossInstall(t *testing.T) {
	ds := testfix.Synth(31, 400, 4, 1, 0)
	mA := trainModel(t, ds, 4, 100)
	mB := trainModel(t, ds, 4, 200)
	attr := mA.Sensitive[mA.CategoricalAttrs()[0]].Name
	metrics := telemetry.NewRegistry()
	reg := NewRegistry(Options{Workers: 2, Metrics: metrics})
	defer reg.Close()
	first, err := reg.Install("prod", "", mA)
	if err != nil {
		t.Fatal(err)
	}

	rows := ds.Features[:10]
	sens := make([]map[string]string, len(rows))
	for i := range sens {
		sens[i] = map[string]string{attr: "a"}
	}
	assign := func() {
		t.Helper()
		e, err := reg.Get("prod")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Assigner().AssignBatch(rows, sens); err != nil {
			t.Fatal(err)
		}
	}
	assign()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := metrics.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const installs = 5
	for i := 0; i < installs; i++ {
		m := mB
		if i%2 == 1 {
			m = mA
		}
		if _, err := reg.Install("prod", "", m); err != nil {
			t.Fatal(err)
		}
		assign()
	}
	close(stop)
	wg.Wait()

	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Assigner()
	if a.Tracer() != first.Assigner().Tracer() {
		t.Error("re-installed name got a new tracer")
	}
	const reqs = installs + 1
	if st := a.Stats(); st.Requests != reqs || st.Rows != reqs*uint64(len(rows)) {
		t.Errorf("stats after %d installs = %d requests / %d rows, want %d / %d",
			installs, st.Requests, st.Rows, reqs, reqs*len(rows))
	}
	if d := a.Drift(); d[0].ObservedRows != uint64(len(rows)) {
		t.Errorf("live drift observed %d rows, want %d (this generation only)", d[0].ObservedRows, len(rows))
	}

	var b strings.Builder
	if err := metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`fairserved_model_generation{model="prod"} %d`, installs+1),
		fmt.Sprintf(`fairserved_requests_total{model="prod"} %d`, reqs),
		fmt.Sprintf(`fairserved_request_latency_seconds_count{model="prod"} %d`, reqs),
		fmt.Sprintf(`fairserved_request_stage_seconds_count{model="prod",stage="total"} %d`, reqs),
		fmt.Sprintf(`fairserved_drift_observed_rows{attribute=%q,model="prod"} %d`, attr, len(rows)),
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}
