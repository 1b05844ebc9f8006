package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

func newLatTracker() *tracker {
	return newTracker(&model.Model{}, telemetry.NewRegistry(), "m")
}

// TestSnapshotQuantiles drives the tracker's histogram-backed
// quantiles: with latencies 1..100ms the snapshot's P50/P99 must land
// on the nearest-rank elements within the histogram's ≤1/32 bucket
// quantization (and never above the observed max).
func TestSnapshotQuantiles(t *testing.T) {
	const n = 100
	tr := newLatTracker()
	for i := 1; i <= n; i++ {
		tr.record(1, time.Duration(i)*time.Millisecond)
	}
	s := tr.snapshot()
	check := func(name string, got, exact time.Duration) {
		t.Helper()
		if got < exact || float64(got) > float64(exact)*(1+1.0/32) {
			t.Errorf("%s = %v, want within [%v, %v+3.2%%]", name, got, exact, exact)
		}
	}
	check("P50", s.P50, 50*time.Millisecond)
	check("P99", s.P99, 99*time.Millisecond)
	if s.P999 < 99*time.Millisecond || s.P999 > 100*time.Millisecond {
		t.Errorf("P999 = %v, want in [99ms, max=100ms]", s.P999)
	}
	if s.Requests != n || s.Rows != n {
		t.Errorf("requests/rows = %d/%d, want %d/%d", s.Requests, s.Rows, n, n)
	}

	// Single sample: every quantile is that sample's bucket, clamped to
	// the exact max.
	tr2 := newLatTracker()
	tr2.record(1, 5*time.Millisecond)
	s2 := tr2.snapshot()
	if s2.P50 != 5*time.Millisecond || s2.P99 != 5*time.Millisecond || s2.P999 != 5*time.Millisecond {
		t.Errorf("single-sample quantiles = %v/%v/%v, want 5ms each", s2.P50, s2.P99, s2.P999)
	}

	// Empty tracker: all zeros, no panic.
	if s0 := newLatTracker().snapshot(); s0.P50 != 0 || s0.P99 != 0 || s0.P999 != 0 {
		t.Errorf("empty snapshot quantiles = %+v", s0)
	}
}

// TestSnapshotDoesNotBlockRecording is the scrape-contention
// regression test: the old tracker copied and sorted its latency ring
// under the same mutex record() took, so every /metrics scrape stalled
// the assign hot path. The histogram tracker shares NO lock between
// the two sides. This test hammers snapshot() and the histogram from
// scraper goroutines while recorders run flat out — under -race it
// proves the lock-free design sound, and the exact final counts prove
// no record is lost to a scrape, however often one is in flight.
func TestSnapshotDoesNotBlockRecording(t *testing.T) {
	const recorders = 4
	const perR = 20000
	tr := newLatTracker()
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := tr.snapshot()
					if snap.P50 > snap.P99 || snap.P99 > snap.P999 {
						t.Errorf("inconsistent mid-flight snapshot: %+v", snap)
						return
					}
					// record() bumps the request counter before the
					// histogram, so a later histogram read can trail the
					// earlier counter read only by the recorders caught
					// mid-record.
					if h := tr.lat.Snapshot(); h.Count()+recorders < snap.Requests {
						t.Errorf("latency histogram lost records: %d well behind counter %d", h.Count(), snap.Requests)
						return
					}
				}
			}
		}()
	}
	var recordersWG sync.WaitGroup
	for r := 0; r < recorders; r++ {
		recordersWG.Add(1)
		go func() {
			defer recordersWG.Done()
			for i := 0; i < perR; i++ {
				tr.record(1, time.Duration(i%1000+1)*time.Microsecond)
			}
		}()
	}
	recordersWG.Wait()
	close(stop)
	scrapers.Wait()
	s := tr.snapshot()
	if want := uint64(recorders * perR); s.Requests != want || tr.lat.Snapshot().Count() != want {
		t.Fatalf("lost records under concurrent scraping: requests=%d histogram=%d, want %d",
			s.Requests, tr.lat.Snapshot().Count(), want)
	}
}
