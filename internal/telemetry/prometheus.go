package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type the
// writer conforms to.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): one HELP and one TYPE line
// per family, then one sample line per instrument, with histograms
// expanded to cumulative `le` buckets plus `_sum` and `_count`.
//
// Output is deterministic: families are rendered in name order and
// instruments in label order, so two scrapes over frozen inputs are
// byte-identical (pinned by TestWritePrometheusDeterministic).
// Pull-style collector funcs run under the registry lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		fam := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind)
		suffixes := make([]string, 0, len(fam.instruments))
		for s := range fam.instruments {
			suffixes = append(suffixes, s)
		}
		sort.Strings(suffixes)
		for _, s := range suffixes {
			writeInstrument(&b, fam, fam.instruments[s])
		}
	}
	r.mu.Unlock()

	_, err := io.WriteString(w, b.String())
	return err
}

func writeInstrument(b *strings.Builder, fam *family, in *instrument) {
	switch fam.kind {
	case KindCounter:
		v := in.count.Load()
		if in.pull {
			v = in.countFn()
		}
		fmt.Fprintf(b, "%s%s %s\n", fam.name, in.labels, strconv.FormatUint(v, 10))
	case KindGauge:
		v := Gauge{in: in}.Value()
		if in.pull {
			v = in.gaugeFn()
		}
		fmt.Fprintf(b, "%s%s %s\n", fam.name, in.labels, formatFloat(v))
	case KindHistogram:
		writeHistogram(b, fam.name, in.labels, in.hist.Snapshot())
	}
}

// writeHistogram expands one Histogram into cumulative `le` buckets in
// SECONDS (Prometheus base-unit convention; recording is in
// nanoseconds). Only occupied buckets emit a line — the cumulative
// counts are exact regardless — plus the mandatory +Inf bucket, _sum
// and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		le := formatFloat(float64(bucketHigh(i)) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, le), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), h.n)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.sum)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.n)
}

// bucketLabels splices le into an instrument's rendered label suffix.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the Go-canonical shortest way ('g', the
// same convention the old hand-rolled exposition used via %g).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value: backslash, double quote and
// newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
