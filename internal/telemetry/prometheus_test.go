package telemetry

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the full exposition byte-for-byte:
// HELP/TYPE per family, families in name order, instruments in label
// order, histograms as cumulative le buckets in seconds (occupied
// buckets only) plus +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Total requests.", Label{Key: "model", Value: "b"}).Add(5)
	r.Counter("test_requests_total", "Total requests.", Label{Key: "model", Value: "a"}).Add(3)
	r.Gauge("test_temp", "Current temperature.").Set(1.5)
	h := r.Histogram("test_lat_seconds", "Request latency.")
	h.Record(10 * time.Nanosecond)  // exact bucket: le 10ns = 1e-08s
	h.Record(100 * time.Nanosecond) // log-linear bucket [96,101]ns: le 1.01e-07s
	h.Record(100 * time.Nanosecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := `# HELP test_lat_seconds Request latency.
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="1e-08"} 1
test_lat_seconds_bucket{le="1.01e-07"} 3
test_lat_seconds_bucket{le="+Inf"} 3
test_lat_seconds_sum 2.1e-07
test_lat_seconds_count 3
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{model="a"} 3
test_requests_total{model="b"} 5
# HELP test_temp Current temperature.
# TYPE test_temp gauge
test_temp 1.5
`
	if b.String() != golden {
		t.Fatalf("exposition mismatch.\n--- got ---\n%s--- want ---\n%s", b.String(), golden)
	}
}

// TestWritePrometheusDeterministic: scraping twice over frozen inputs
// is byte-identical — map iteration order must never leak.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, m := range []string{"zeta", "alpha", "mid"} {
		r.Counter("det_total", "Det.", Label{Key: "model", Value: m}).Add(uint64(len(m)))
		r.Histogram("det_lat_seconds", "Det latency.", Label{Key: "model", Value: m}).
			Record(time.Duration(len(m)) * time.Millisecond)
	}
	r.Gauge("det_gauge", "Det gauge.", Label{Key: "x", Value: "1"}).Set(7)
	var first strings.Builder
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again strings.Builder
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("scrape %d differs:\n%s\nvs:\n%s", i, again.String(), first.String())
		}
	}
}

// TestWritePrometheusEscaping: HELP escapes backslash and newline;
// label values additionally escape double quotes.
func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line1\nline2 \\ done.",
		Label{Key: "path", Value: "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2 \\ done.`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

// TestWritePrometheusHistogramCumulative checks the le-bucket contract
// on a spread distribution: counts are cumulative, every le bound
// is at least the values it covers, and _count/_sum/+Inf agree with
// the recorded data.
func TestWritePrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_seconds", "Cumulative.")
	var n uint64
	var sumNS int64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 37 * time.Microsecond
		h.Record(d)
		n++
		sumNS += d.Nanoseconds()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var prevCum uint64
	var prevLE float64
	var infSeen bool
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "cum_seconds_bucket{le=") {
			continue
		}
		leStr := line[strings.Index(line, `"`)+1 : strings.LastIndex(line, `"`)]
		cum, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if leStr == "+Inf" {
			infSeen = true
			if cum != n {
				t.Fatalf("+Inf bucket %d, want %d", cum, n)
			}
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", leStr, err)
		}
		if le <= prevLE && prevCum > 0 {
			t.Fatalf("le bounds not increasing: %v after %v", le, prevLE)
		}
		if cum < prevCum {
			t.Fatalf("bucket counts not cumulative: %d after %d", cum, prevCum)
		}
		// Nearest-rank check: the cum-th smallest recorded value must
		// not exceed the bucket bound (values are i*37µs, sorted).
		if got := float64(cum) * 37e-6; cum > 0 && float64(cum)*37e-6 > le+1e-12 {
			t.Fatalf("le %v under-covers its %d values (largest %v)", le, cum, got)
		}
		prevLE, prevCum = le, cum
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
	out := b.String()
	if !strings.Contains(out, "cum_seconds_count "+strconv.FormatUint(n, 10)+"\n") {
		t.Fatalf("_count missing or wrong:\n%s", out)
	}
	wantSum := formatFloat(float64(sumNS) / 1e9)
	if !strings.Contains(out, "cum_seconds_sum "+wantSum+"\n") {
		t.Fatalf("_sum %s missing:\n%s", wantSum, out)
	}
}
