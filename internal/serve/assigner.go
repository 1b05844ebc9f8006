// Package serve is the fair-assignment serving subsystem: it loads
// model artifacts (internal/model) and answers nearest-centroid
// assignment queries under concurrent traffic.
//
// The package has three pieces:
//
//   - Assigner: answers batch queries for one immutable model through
//     a micro-batching worker pool; a single query is a one-row batch.
//     It counts requests, rows, sheds, deadlines and latency into
//     owned instruments of Options.Metrics, and tracks its own
//     traffic's fairness drift.
//   - Labels: a batch's sensitive values as codes against the model's
//     categorical attributes, the input of AssignLabelled. Training
//     values resolve through a read-only lookup built with the
//     Assigner; AssignBatch's per-row maps are resolved to Labels too,
//     so both entry points score and observe through one path.
//   - Registry: a named set of Assigners with atomic hot-swap — a
//     reload under traffic lets in-flight requests finish on the model
//     they started with while new requests see the new one. It owns
//     every fairserved_* metric family: counters and histograms count
//     across generations of a name, while the generation, admission
//     and drift series describe the live one.
//   - Stats/DriftReport: snapshots for the /v1/models endpoint of
//     cmd/fairserved.
//
// # Determinism
//
// Assignment is nearest-centroid per row (the only deployment rule the
// FairKM objective admits for unseen points — see core.Result.Predict),
// so rows are independent and the worker pool only changes *where* a
// row is scored, never *what* it scores against: results are identical
// for every worker count and batch size, and identical to a sequential
// scan. The micro-batch writes land in caller-allocated slots indexed
// by row position, so batch order is preserved. This contract is pinned
// by TestAssignerDeterministic (every worker×batch combination, under
// -race).
//
// # Drift
//
// Each labelled batch tallies its codes per (attribute, cluster,
// value) without a lock and merges the tally into the Assigner's drift
// state under one lock acquisition, values unseen in training taking
// their codes in row order. Counts are whole numbers, so the reports
// equal a row-by-row observation bit for bit, whatever the batching
// (TestDriftBatchMatchesRows).
//
// # Overload
//
// With Options.MaxConcurrent set, each Assigner runs behind an
// admission gate: at most MaxConcurrent requests score at once, at most
// MaxQueue wait for a slot, and (with QueueBudget) arrivals whose
// estimated queue wait already exceeds the budget are rejected with a
// ShedError instead of queueing — shed, don't collapse. Request
// contexts propagate through AssignBatchCtx: a deadline that
// expires while queued or mid-batch aborts the request (wrapping
// context.DeadlineExceeded) rather than scoring rows nobody is waiting
// for. Limits are per model: every Assigner a Registry constructs gets
// its own independent gate.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// DefaultBatchSize is the micro-batch size when Options.BatchSize <= 0:
// how many rows one worker scores per task. Small enough to spread a
// big batch over the pool, large enough that channel traffic is
// amortized over many distance evaluations.
const DefaultBatchSize = 64

// Options parameterizes an Assigner.
type Options struct {
	// BatchSize is the micro-batch size (rows per worker task); <= 0
	// means DefaultBatchSize.
	BatchSize int
	// Workers is the scoring pool size; <= 0 means GOMAXPROCS.
	Workers int

	// Metrics is the registry the serving instruments count into, all
	// labelled model=<name>: the request, row, shed and deadline
	// counters and the latency histogram. A non-nil Metrics also turns
	// on span tracing into the same registry (per-stage histograms plus
	// a flight recorder). nil gives the Assigner a private registry and
	// no tracer. A Registry shares one Metrics across every model it
	// installs, so a re-installed name keeps counting into its series.
	Metrics *telemetry.Registry

	// MaxConcurrent caps how many requests may score on this model at
	// once; <= 0 disables admission control entirely (no queue bound,
	// no shedding — the pre-overload-control behavior).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot when
	// MaxConcurrent is set; <= 0 means DefaultMaxQueue. Arrivals beyond
	// the bound are rejected with a ShedError.
	MaxQueue int
	// QueueBudget, when positive, sheds arrivals whose estimated queue
	// wait (queued requests × smoothed service time / slots) already
	// exceeds it: the request would blow its latency budget anyway, so
	// reject it now and keep the queue short.
	QueueBudget time.Duration

	// ScoreHook, when non-nil, runs once per scoring task (micro-batch
	// in the pooled path, whole request in the inline path) before any
	// distances are computed. It exists ONLY for fault-injection tests —
	// simulating slow or stalled workers — and must be nil in
	// production.
	ScoreHook func(rows int)
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrent > 0 && o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	return o
}

// batchJob is one pooled batch request's shared work descriptor: pool
// workers (the participants) claim micro-batch strides with one atomic
// add each and score them into the caller's result slots, so dispatch
// costs one channel handoff per participant, however many
// micro-batches the request spans. The caller never scores: a stalled
// stride must cost a pool goroutine, not the request's deadline.
//
// active counts the participants still inside the job plus the
// caller's holds (one count while it dispatches, waiterHold while it
// waits), and done is the one-slot completion signal. A participant
// exits only once no unclaimed stride remains and its own strides are
// scored. The exit that leaves exactly waiterHold sends on done; if
// the caller already dropped that hold on expiry, the exit that
// reaches zero recycles the job instead (see leave). Either way
// exactly one party puts the job back, after which nobody touches it.
type batchJob struct {
	ctx    context.Context
	rows   [][]float64
	out    []int
	dists  []float64
	batch  int
	next   atomic.Int64 // next unclaimed row offset
	active atomic.Int64
	done   chan struct{} // capacity 1; empty whenever the job is pooled
}

// waiterHold is the waiting caller's count in batchJob.active. It
// exceeds any participant count, so once the caller drops it on expiry
// no participant's exit can read as "only the caller is left".
const waiterHold = 1 << 32

// jobPool recycles batchJob descriptors, done channel included, so the
// steady-state batch path allocates nothing beyond the result slices
// it returns.
var jobPool = sync.Pool{New: func() any { return &batchJob{done: make(chan struct{}, 1)} }}

// newJob takes a job from the pool holding the caller's two holds: the
// waiter's, and one count as the dispatcher, dropped by leave once
// every handoff is made, so no participant can signal completion
// while workers are still being invited.
func newJob(ctx context.Context, rows [][]float64, out []int, dists []float64, batch int) *batchJob {
	j := jobPool.Get().(*batchJob)
	j.ctx, j.rows, j.out, j.dists, j.batch = ctx, rows, out, dists, batch
	j.next.Store(0)
	j.active.Store(waiterHold + 1)
	return j
}

// putJob must only be called once no participant can touch the job
// again: after its done signal is drained, by the participant whose
// exit orphaned it, or before it was ever offered to a worker.
func putJob(j *batchJob) {
	j.ctx, j.rows, j.out, j.dists = nil, nil, nil, nil
	jobPool.Put(j)
}

// Assigner serves one immutable model. All methods are safe for
// concurrent use; the model is never mutated after construction.
type Assigner struct {
	m    *model.Model
	opts Options

	// ix is the sorted-neighbor centroid index — norms and neighbor
	// lists computed once per model install, never per batch — so all
	// scoring goes through the pruned fused kernel
	// (stats.CentroidIndex.Nearest): d² = ‖x‖² − 2·x·c + ‖c‖², with
	// triangle-inequality early termination over neighbors of the
	// running best. scratch pools the per-query visited marks so the
	// steady-state hot path allocates nothing.
	ix      *stats.CentroidIndex
	scratch sync.Pool

	jobs chan *batchJob
	gate *gate // nil when admission control is off

	// closeMu serializes request entry against Close, so the pool is
	// only torn down once every admitted request has drained. Requests
	// admitted before Close finish normally; requests arriving after
	// are scored inline on the caller's goroutine (same results, no
	// pool).
	closeMu  sync.RWMutex
	closed   bool
	inflight sync.WaitGroup

	stats *tracker
	// tracer, when non-nil, receives one span Trace per request (every
	// outcome).
	tracer *telemetry.RequestTracer
}

// NewAssigner validates the model and starts the scoring pool. Its
// instruments and tracer are labelled with the model's own name.
func NewAssigner(m *model.Model, opts Options) (*Assigner, error) {
	return newAssigner(m, opts, "")
}

// newAssigner is NewAssigner with the instruments and tracer labelled
// name ("" means the model's own name).
func newAssigner(m *model.Model, opts Options, name string) (*Assigner, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = m.Name
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	opts = opts.withDefaults()
	a := &Assigner{
		m:     m,
		opts:  opts,
		ix:    stats.NewCentroidIndex(m.Centroids),
		jobs:  make(chan *batchJob),
		gate:  newGate(opts),
		stats: newTracker(m, reg, name),
	}
	if opts.Metrics != nil {
		a.tracer = telemetry.NewRequestTracer(reg, stageFamily.name, stageFamily.help, name, 0)
	}
	a.scratch.New = func() any { return a.ix.NewScratch() }
	for w := 0; w < opts.Workers; w++ {
		go a.worker()
	}
	return a, nil
}

// Model returns the immutable model being served.
func (a *Assigner) Model() *model.Model { return a.m }

func (a *Assigner) worker() {
	for j := range a.jobs {
		a.runJob(j)
		a.leave(j)
	}
}

// leave drops one count of j. The exit that leaves only the waiting
// caller's hold signals it; the exit that reaches zero means the
// caller left on expiry, so it runs the orphan cleanup the caller
// could not: the job recycles and the request stops counting as in
// flight only once its last stride has drained, so Close still cannot
// truncate it.
func (a *Assigner) leave(j *batchJob) {
	switch j.active.Add(-1) {
	case waiterHold:
		j.done <- struct{}{}
	case 0:
		putJob(j)
		a.inflight.Done()
	}
}

// runJob claims and scores strides until none remain. Stride claiming
// is one atomic add; the per-stride context check means a worker never
// burns time scoring rows whose request already gave up (it still
// drains the claims, so it exits promptly).
func (a *Assigner) runJob(j *batchJob) {
	n := len(j.rows)
	for {
		lo := int(j.next.Add(int64(j.batch))) - j.batch
		if lo >= n {
			return
		}
		hi := min(lo+j.batch, n)
		if j.ctx.Err() != nil {
			continue // request abandoned: drain without scoring
		}
		a.score(j.rows[lo:hi], j.out[lo:hi], j.dists[lo:hi])
	}
}

// invite offers the job to up to n idle workers without blocking; each
// successful handoff registers one participant. Busy workers are
// simply not invited — the participants already in cover the strides.
func (a *Assigner) invite(j *batchJob, n int) {
	for w := 0; w < n; w++ {
		j.active.Add(1)
		select {
		case a.jobs <- j:
		default:
			j.active.Add(-1) // the dispatcher's hold keeps this above waiterHold
			return
		}
	}
}

// score labels rows into the caller's slots via the pruned fused
// kernel — the one kernel both the inline and the pooled branch use,
// so results are identical bit for bit whichever branch runs.
//
//fairvet:hotpath
func (a *Assigner) score(rows [][]float64, out []int, dists []float64) {
	if h := a.opts.ScoreHook; h != nil {
		h(len(rows))
	}
	sc := a.scratch.Get().(*stats.CentroidScratch)
	for i, x := range rows {
		c, d := a.ix.Nearest(x, sc)
		out[i] = c
		if dists != nil {
			dists[i] = d
		}
	}
	a.scratch.Put(sc)
}

// enter admits a request into the pool, or reports that the pool is
// closed and the request must score inline.
func (a *Assigner) enter() bool {
	a.closeMu.RLock()
	defer a.closeMu.RUnlock()
	if a.closed {
		return false
	}
	a.inflight.Add(1)
	return true
}

// Close drains in-flight requests and stops the worker pool. Requests
// that raced past a registry swap and still hold this Assigner keep
// working — they score inline — so hot-swap never truncates traffic.
func (a *Assigner) Close() {
	a.closeMu.Lock()
	if a.closed {
		a.closeMu.Unlock()
		return
	}
	a.closed = true
	a.closeMu.Unlock()
	a.inflight.Wait()
	close(a.jobs)
}

// admitErr classifies a gate rejection for the caller: shed errors pass
// through (IsShed), context errors are counted and wrapped so
// errors.Is(err, context.DeadlineExceeded) still works.
func (a *Assigner) admitErr(err error) error {
	if IsShed(err) {
		a.stats.shed.Inc()
		return err
	}
	return a.ctxErr(err, "while queued")
}

// traceDone assembles and records one batch request's span trace:
// admission = entry to slot acquisition (the whole request when the
// gate denied it), queue = the measured blocking wait inside the gate,
// score = everything after admission, total = entry to return. Runs
// deferred, after the stats/gate bookkeeping of the path taken.
func (a *Assigner) traceDone(err error, denied bool, rows int, start, admitted time.Time, queueWait time.Duration) {
	end := time.Now()
	tr := telemetry.Trace{Rows: rows, Queue: queueWait, Total: end.Sub(start)}
	switch {
	case err == nil:
		tr.Outcome = telemetry.OutcomeOK
	case IsShed(err):
		tr.Outcome = telemetry.OutcomeShed
	default:
		tr.Outcome = telemetry.OutcomeDeadline
	}
	if denied {
		tr.Admission = tr.Total
	} else {
		tr.Admission = admitted.Sub(start)
		tr.Score = end.Sub(admitted)
	}
	a.tracer.Observe(tr)
}

// ctxErr wraps a context expiry into the request error, counting it.
func (a *Assigner) ctxErr(err error, when string) error {
	a.stats.deadline.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: model %q: deadline exceeded %s: %w", a.m.Name, when, err)
	}
	return fmt.Errorf("serve: model %q: request canceled %s: %w", a.m.Name, when, err)
}

// AssignBatch labels rows[i] into result slot i, spreading micro-batches
// of Options.BatchSize rows over the worker pool. Rows must already be
// in the model's trained space: a caller holding raw vectors applies
// the artifact's Scaling first (model.Scaling.Apply). sensitive, when
// non-nil, must have one entry per row (nil entries allowed) and feeds
// the drift tracker; the values never influence the assignment itself.
// A single query is a one-row batch. Results are deterministic and
// identical for every pool configuration.
func (a *Assigner) AssignBatch(rows [][]float64, sensitive []map[string]string) ([]int, []float64, error) {
	return a.AssignBatchCtx(context.Background(), rows, sensitive)
}

// AssignBatchCtx is AssignBatch under a request context. The context's
// deadline is honored at every stage: while waiting for admission,
// between micro-batches, and while waiting for pool workers — an
// expired request returns an error wrapping context.DeadlineExceeded
// (no partial results) and frees the caller immediately, even if a
// stalled worker is still pinned on one of its micro-batches (the
// orphaned task writes into slots nothing reads anymore). A row whose
// winning squared distance is not finite fails the whole request, with
// nothing counted or observed for drift.
//
// It resolves the maps to Labels and runs AssignLabelled's path, so
// both entry points score and observe drift identically.
func (a *Assigner) AssignBatchCtx(ctx context.Context, rows [][]float64, sensitive []map[string]string) ([]int, []float64, error) {
	return a.AssignLabelled(ctx, rows, a.mapLabels(sensitive))
}

// AssignLabelled is AssignBatchCtx with the rows' sensitive values
// given as Labels built by this Assigner for len(rows) rows (nil: no
// values). The batch's drift counts merge into the tracker under one
// lock acquisition.
func (a *Assigner) AssignLabelled(ctx context.Context, rows [][]float64, labels *Labels) (_ []int, _ []float64, retErr error) {
	dim := a.m.Dim()
	for i, x := range rows {
		if len(x) != dim {
			return nil, nil, fmt.Errorf("serve: row %d has %d features, model %q expects %d", i, len(x), a.m.Name, dim)
		}
	}
	if err := a.checkLabels(labels, len(rows)); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	// Span trace bookkeeping: admitted and queueWait are filled in by
	// the gate branch; denied marks an admission rejection (the whole
	// request was the admission stage). Malformed requests returned
	// above are not traced — they never entered the pipeline.
	admitted := start
	var queueWait time.Duration
	denied := false
	// A non-finite result is a malformed request found only after
	// scoring; like the malformed requests above it is not traced.
	nonFinite := false
	// Registered first, so it runs last: an accepted request's latency
	// is recorded after the trace bookkeeping, the gate release and the
	// drift observation, covering everything the caller waits on.
	defer func() {
		if nonFinite {
			return
		}
		if a.tracer != nil {
			a.traceDone(retErr, denied, len(rows), start, admitted, queueWait)
		}
		if retErr == nil {
			a.stats.record(len(rows), time.Since(start))
		}
	}()
	if a.gate != nil {
		qw, err := a.gate.acquire(ctx)
		if err != nil {
			denied = true
			queueWait = qw
			return nil, nil, a.admitErr(err)
		}
		queueWait = qw
		admitted = time.Now()
		defer func() { a.gate.release(time.Since(admitted)) }()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, a.ctxErr(err, "before scoring")
	}
	out := make([]int, len(rows))
	dists := make([]float64, len(rows))

	batch := a.opts.BatchSize
	if len(rows) <= batch || a.opts.Workers <= 1 || !a.enter() {
		// Small batches, single-worker pools and closed (swapped-out)
		// assigners score inline: identical results, no pool round trip.
		// The deadline is still checked between micro-batch strides.
		for lo := 0; lo < len(rows); lo += batch {
			if lo > 0 && ctx.Err() != nil {
				return nil, nil, a.ctxErr(ctx.Err(), "mid-batch")
			}
			hi := lo + batch
			if hi > len(rows) {
				hi = len(rows)
			}
			a.score(rows[lo:hi], out[lo:hi], dists[lo:hi])
		}
		if err := ctx.Err(); err != nil {
			// The deadline passed while scoring (e.g. a stalled stride):
			// the caller already gave up, so this is a late failure, not
			// a success whose latency belongs in the accepted stats.
			return nil, nil, a.ctxErr(err, "mid-batch")
		}
	} else {
		// Pooled: the caller never scores, so the first handoff blocks —
		// bounded by the context — to guarantee a scorer, and the rest
		// are opportunistic.
		j := newJob(ctx, rows, out, dists, batch)
		j.active.Add(1)
		select {
		case a.jobs <- j:
		case <-ctx.Done():
			// Never offered: nothing else references the job.
			putJob(j)
			a.inflight.Done()
			return nil, nil, a.ctxErr(ctx.Err(), "mid-batch")
		}
		strides := (len(rows) + batch - 1) / batch
		a.invite(j, min(a.opts.Workers, strides)-1)
		a.leave(j) // dispatch done
		// Wait for the participants, but never past the deadline.
		select {
		case <-j.done:
		case <-ctx.Done():
			if j.active.Add(-waiterHold) > 0 {
				// Orphaned: the last participant out recycles the job.
				return nil, nil, a.ctxErr(ctx.Err(), "mid-batch")
			}
			<-j.done // every participant has left; drain its signal
		}
		err := ctx.Err()
		putJob(j)
		a.inflight.Done()
		if err != nil {
			// Participants may have drained strides unscored after
			// expiry; the slots are unreliable, so the request fails as
			// a whole.
			return nil, nil, a.ctxErr(err, "mid-batch")
		}
	}

	for i, d := range dists {
		if !isFinite(d) {
			nonFinite = true
			return nil, nil, a.nonFiniteErr(i)
		}
	}
	if labels != nil {
		a.stats.observe(out, labels)
	}
	return out, dists, nil
}

// nonFiniteErr reports a row whose winning squared distance overflowed
// (or became NaN): finite but huge features. Such a request is
// rejected whole, and none of its rows is counted or observed.
func (a *Assigner) nonFiniteErr(row int) error {
	return fmt.Errorf("serve: row %d: squared distance to the nearest centroid of model %q is not finite (features too large)", row, a.m.Name)
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// Stats snapshots the serving counters, which span every Assigner that
// counted into the same instruments, and this Assigner's admission
// gauges.
func (a *Assigner) Stats() Stats {
	s := a.stats.snapshot()
	s.Inflight, s.Queued = a.depth()
	return s
}

// depth reads the admission gauges; both are zero without a gate.
func (a *Assigner) depth() (inflight, queued int) {
	if a.gate == nil {
		return 0, 0
	}
	return a.gate.depth()
}

// Tracer returns the span tracer batch requests report into (nil when
// untraced).
func (a *Assigner) Tracer() *telemetry.RequestTracer { return a.tracer }

// Drift reports observed-vs-training fairness per categorical
// attribute, over this Assigner's traffic only.
func (a *Assigner) Drift() []DriftReport { return a.stats.drift() }

// bindLive points the model name's live-generation series at a: the
// admission gauges and, per attribute, the drift gauge and observed-row
// count, each reading only its own attribute.
func (a *Assigner) bindLive(reg *telemetry.Registry, ml telemetry.Label) {
	reg.GaugeFunc(inflightFamily.name, inflightFamily.help,
		func() float64 { n, _ := a.depth(); return float64(n) }, ml)
	reg.GaugeFunc(queueFamily.name, queueFamily.help,
		func() float64 { _, n := a.depth(); return float64(n) }, ml)
	t := a.stats
	for _, da := range t.driftAttrs() {
		da := da
		al := telemetry.Label{Key: "attribute", Value: da.name}
		reg.GaugeFunc(driftTVFamily.name, driftTVFamily.help,
			func() float64 { return t.report(da).MaxTV }, ml, al)
		reg.CounterFunc(driftRowsFamily.name, driftRowsFamily.help,
			func() uint64 { return t.observed(da) }, ml, al)
	}
}
