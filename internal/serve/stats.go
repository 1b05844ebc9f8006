package serve

import (
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Stats is a point-in-time snapshot of one model name's serving
// counters.
type Stats struct {
	// Requests counts completed Assign/AssignBatch calls; Rows counts
	// labelled feature vectors (a batch of 100 is 1 request, 100 rows).
	Requests uint64
	Rows     uint64
	// Shed counts requests rejected by admission control (ShedError);
	// Deadline counts requests whose context expired — queued or
	// mid-batch — before completion. Neither contributes to
	// Requests/Rows or the latency quantiles.
	Shed     uint64
	Deadline uint64
	// Inflight and Queued are instantaneous admission-gate gauges:
	// requests holding scoring slots and requests waiting for one.
	// Always zero when admission control is off.
	Inflight int
	Queued   int
	// P50, P99 and P999 are request latency quantiles over ALL accepted
	// requests counted into the instruments (zero until the first
	// request), read from a full-fidelity log-linear histogram — no
	// sampling window, no coordinated-omission bias in the tail.
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
}

// metricFamily is a Prometheus family name with its help text.
type metricFamily struct{ name, help string }

// The serving metric families, all labelled model=<served name>.
// Registry.Install documents which of them span a hot swap.
var (
	requestsFamily   = metricFamily{"fairserved_requests_total", "Assignment requests served per model."}
	rowsFamily       = metricFamily{"fairserved_rows_total", "Feature vectors labelled per model."}
	shedFamily       = metricFamily{"fairserved_shed_total", "Requests rejected by admission control per model."}
	deadlineFamily   = metricFamily{"fairserved_deadline_total", "Requests failed by their deadline per model."}
	latencyFamily    = metricFamily{"fairserved_request_latency_seconds", "Accepted-request latency since the model name was first installed."}
	stageFamily      = metricFamily{"fairserved_request_stage_seconds", "Per-stage request latency (admission wait, queue residency, micro-batch scoring, total), OK requests only."}
	generationFamily = metricFamily{"fairserved_model_generation", "Hot-swap generation per model name."}
	inflightFamily   = metricFamily{"fairserved_inflight", "Admitted requests currently scoring per model."}
	queueFamily      = metricFamily{"fairserved_queue_depth", "Requests waiting for an admission slot per model."}
	driftTVFamily    = metricFamily{"fairserved_drift_max_tv", "Max total-variation distance between observed and training cluster mixes."}
	driftRowsFamily  = metricFamily{"fairserved_drift_observed_rows", "Rows with sensitive values observed per attribute."}
)

// tracker holds one Assigner's counter and latency instruments and
// accumulates its drift state.
type tracker struct {
	model *model.Model

	// Recording is wait-free and shares no lock with a scrape (pinned
	// by TestSnapshotDoesNotBlockRecording).
	requests, rows, shed, deadline telemetry.Counter
	lat                            telemetry.HistogramMetric

	// vocab resolves labels without driftMu; tallies recycles the
	// per-batch counts observe merges under it.
	vocab   *vocab
	tallies sync.Pool

	driftMu sync.Mutex
	attrs   []*driftAttr // guarded by driftMu
}

// driftAttr accumulates the observed sensitive-value mix per cluster
// for one categorical attribute, against the model's training state.
type driftAttr struct {
	ai     int // index into model.Sensitive
	name   string
	dom    *dataset.DomainIndex // training snapshot + unseen serving values
	counts [][]float64          // [cluster][value], value slices grow with dom
	seen   uint64               // observed rows carrying this attribute
	// training is the fairness report of the model's per-cluster
	// training distributions, computed once here: it never changes
	// after load (values first seen while serving have training
	// frequency 0 everywhere, which leaves the report's distances
	// untouched), so per-scrape recomputation would only serialize the
	// observe hot path for nothing.
	training metrics.FairnessReport
}

// newTracker resolves the named model's instruments in reg and
// prepares drift tracking for every categorical attribute of m.
func newTracker(m *model.Model, reg *telemetry.Registry, name string) *tracker {
	ml := telemetry.Label{Key: "model", Value: name}
	t := &tracker{
		model:    m,
		requests: reg.Counter(requestsFamily.name, requestsFamily.help, ml),
		rows:     reg.Counter(rowsFamily.name, rowsFamily.help, ml),
		shed:     reg.Counter(shedFamily.name, shedFamily.help, ml),
		deadline: reg.Counter(deadlineFamily.name, deadlineFamily.help, ml),
		lat:      reg.Histogram(latencyFamily.name, latencyFamily.help, ml),
	}
	t.vocab = &vocab{}
	for _, ai := range m.CategoricalAttrs() {
		dom, err := m.DomainIndex(ai)
		if err != nil {
			continue // Validate already rejects broken domains
		}
		s := m.Sensitive[ai]
		codes := make(map[string]int32, len(s.Values))
		for c, v := range s.Values {
			codes[v] = int32(c)
		}
		t.vocab.names = append(t.vocab.names, s.Name)
		t.vocab.codes = append(t.vocab.codes, codes)
		trainSizes := make([]float64, m.K)
		trainDists := make([][]float64, m.K)
		for c := 0; c < m.K; c++ {
			trainSizes[c] = m.Clusters[c].Mass
			trainDists[c] = m.Clusters[c].Distributions[ai]
		}
		da := &driftAttr{
			ai:       ai,
			name:     s.Name,
			dom:      dom,
			counts:   make([][]float64, m.K),
			training: metrics.FairnessFromDistributions(s.Name, s.TrainFractions, trainSizes, trainDists),
		}
		for c := range da.counts {
			da.counts[c] = make([]float64, dom.Len())
		}
		t.attrs = append(t.attrs, da)
	}
	t.tallies.New = func() any { return newTally(t.vocab, m.K) }
	return t
}

// record counts one completed request on the wait-free counters; it is
// on the per-request serving path.
//
//fairvet:hotpath
func (t *tracker) record(rows int, d time.Duration) {
	t.requests.Inc()
	t.rows.Add(uint64(rows))
	t.lat.Record(d)
}

// tally is one batch's drift counts, made without driftMu and merged
// under one acquisition of it. Training codes count densely, with the
// entries a batch touched listed so a merge and a reset cost what the
// batch touched, not the domain sizes. Unseen values are listed in row
// order, so the merge assigns their codes in the order a row-by-row
// observation would.
type tally struct {
	base    []int    // slot s's counts start at counts[base[s]], cluster-major
	counts  []uint32 // per slot, k × (training domain size)
	touched []int    // indices of the nonzero counts
	seen    []uint64 // rows per slot carrying the attribute
	unseen  []unseenHit
}

// unseenHit is one row's value outside its attribute's training domain.
type unseenHit struct {
	cluster, slot int
	value         string
}

func newTally(v *vocab, k int) *tally {
	tl := &tally{base: make([]int, len(v.codes)+1), seen: make([]uint64, len(v.codes))}
	for s, codes := range v.codes {
		tl.base[s+1] = tl.base[s] + k*len(codes)
	}
	tl.counts = make([]uint32, tl.base[len(v.codes)])
	return tl
}

// observe counts a batch's labelled rows, clusters[i] being row i's
// cluster, into the drift state. It takes driftMu once, however many
// rows the batch holds.
func (t *tracker) observe(clusters []int, l *Labels) {
	w := len(t.vocab.names)
	tl := t.tallies.Get().(*tally)
	for i, c := range clusters {
		for s, code := range l.codes[i*w : i*w+w] {
			switch {
			case code >= 0:
				at := tl.base[s] + c*len(t.vocab.codes[s]) + int(code)
				if tl.counts[at] == 0 {
					tl.touched = append(tl.touched, at)
				}
				tl.counts[at]++
				tl.seen[s]++
			case code != absent:
				tl.unseen = append(tl.unseen, unseenHit{cluster: c, slot: s, value: l.unseen[-2-code]})
			}
		}
	}
	t.merge(tl)
	for _, at := range tl.touched {
		tl.counts[at] = 0
	}
	clear(tl.seen)
	clear(tl.unseen) // drop the value strings
	tl.touched, tl.unseen = tl.touched[:0], tl.unseen[:0]
	t.tallies.Put(tl)
}

// merge adds a batch's tally into the drift state. Counts are whole
// numbers, so the sums are exact in any order.
func (t *tracker) merge(tl *tally) {
	t.driftMu.Lock()
	defer t.driftMu.Unlock()
	for _, at := range tl.touched {
		s := 0
		for tl.base[s+1] <= at {
			s++
		}
		n := len(t.vocab.codes[s])
		c, v := (at-tl.base[s])/n, (at-tl.base[s])%n
		t.attrs[s].counts[c][v] += float64(tl.counts[at])
	}
	for s, da := range t.attrs {
		da.seen += tl.seen[s]
	}
	for _, h := range tl.unseen {
		da := t.attrs[h.slot]
		code := da.dom.Code(h.value)
		cc := da.counts[h.cluster]
		for code >= len(cc) {
			cc = append(cc, 0)
		}
		cc[code]++
		da.counts[h.cluster] = cc
		da.seen++
	}
}

// snapshot reads the counters and derives the latency quantiles from a
// histogram snapshot. It shares no lock with the assign hot path: a
// scrape costs the reader a bucket-array scan and costs writers
// nothing.
func (t *tracker) snapshot() Stats {
	s := Stats{
		Requests: t.requests.Value(),
		Rows:     t.rows.Value(),
		Shed:     t.shed.Value(),
		Deadline: t.deadline.Value(),
	}
	h := t.lat.Snapshot()
	if h.Count() == 0 {
		return s
	}
	s.P50 = h.Quantile(0.50)
	s.P99 = h.Quantile(0.99)
	s.P999 = h.Quantile(0.999)
	return s
}

// DriftReport compares the sensitive-value mix observed in serving
// traffic against the model's training distributions, per categorical
// attribute.
type DriftReport struct {
	// Attribute names the sensitive attribute.
	Attribute string
	// ObservedRows is how many labelled rows carried this attribute.
	ObservedRows uint64
	// Training is the fairness report of the model's per-cluster
	// training distributions against its training Fr_X; Observed is the
	// same measure over serving traffic. Divergence between the two is
	// drift: the fair clustering was balanced for the training mix, not
	// the one now arriving.
	Training metrics.FairnessReport
	Observed metrics.FairnessReport
	// MaxTV is the largest total-variation distance between any
	// cluster's observed mix and its training distribution (clusters
	// with no observed rows are skipped). 0 = traffic matches training,
	// 1 = completely disjoint.
	MaxTV float64
}

// drift materializes the current drift reports, one per attribute.
func (t *tracker) drift() []DriftReport {
	var reps []DriftReport
	for _, da := range t.driftAttrs() {
		reps = append(reps, t.report(da))
	}
	return reps
}

// driftAttrs returns the tracked attributes. The list is fixed at
// construction; only each attribute's counts change.
func (t *tracker) driftAttrs() []*driftAttr {
	t.driftMu.Lock()
	defer t.driftMu.Unlock()
	return t.attrs
}

// observed returns how many rows carried da's attribute.
func (t *tracker) observed(da *driftAttr) uint64 {
	t.driftMu.Lock()
	defer t.driftMu.Unlock()
	return da.seen
}

// report materializes one attribute's drift report. An attribute with
// no observations yet reports only the training side.
func (t *tracker) report(da *driftAttr) DriftReport {
	t.driftMu.Lock()
	defer t.driftMu.Unlock()
	m := t.model
	s := m.Sensitive[da.ai]
	rep := DriftReport{
		Attribute:    s.Name,
		ObservedRows: da.seen,
		Training:     da.training,
	}
	if da.seen == 0 {
		return rep
	}
	nvals := da.dom.Len()
	// Training frX and distributions padded with zeros for values first
	// seen while serving (their training frequency is 0 by definition).
	frX := make([]float64, nvals)
	copy(frX, s.TrainFractions)
	trainDists := make([][]float64, m.K)
	for c := range trainDists {
		td := make([]float64, nvals)
		copy(td, m.Clusters[c].Distributions[da.ai])
		trainDists[c] = td
	}
	obsSizes := make([]float64, m.K)
	obsDists := make([][]float64, m.K)
	for c := range obsDists {
		od := make([]float64, nvals)
		total := 0.0
		for v, cnt := range da.counts[c] {
			od[v] = cnt
			total += cnt
		}
		obsSizes[c] = total
		if total > 0 {
			for v := range od {
				od[v] /= total
			}
			tv := 0.0
			for v := range od {
				d := od[v] - trainDists[c][v]
				if d < 0 {
					d = -d
				}
				tv += d
			}
			tv /= 2
			if tv > rep.MaxTV {
				rep.MaxTV = tv
			}
		}
		obsDists[c] = od
	}
	rep.Observed = metrics.FairnessFromDistributions(s.Name, frX, obsSizes, obsDists)
	return rep
}
