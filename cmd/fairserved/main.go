// Command fairserved serves fair-assignment traffic from saved model
// artifacts: load one or more models trained by fairkm/fairstream
// (-save), then answer nearest-centroid assignment queries over HTTP
// while tracking per-model latency and fairness drift.
//
// Usage:
//
//	fairserved -model m.json [-model more.json ...] [-addr :8080]
//	           [-batch 64] [-workers N]
//	           [-max-concurrent N [-max-queue N] [-queue-budget 50ms]]
//	           [-request-timeout 0] [-max-body 33554432]
//	           [-shutdown-timeout 10s] [-debug-addr ""]
//
// Overload behavior: with -max-concurrent set, each model admits at
// most that many concurrent batches; excess requests queue up to
// -max-queue deep and are shed with HTTP 429 (plus a Retry-After
// header) when the queue is full or the estimated wait exceeds
// -queue-budget. With -request-timeout set, requests that cannot
// finish inside the budget fail with HTTP 503 and free their slot.
// Bodies larger than -max-body are rejected with HTTP 413. An
// /v1/assign row whose squared distance to its nearest centroid
// overflows (finite but huge features) fails the request with 400.
//
// /v1/assign bodies are decoded in one byte-level pass (wire.go):
// numbers convert during the JSON scan, exactly as strconv.ParseFloat
// would, and each row's sensitive values stay byte spans until the
// model is known, then resolve to the model's codes for the drift
// tracker (serve.Labels), with no per-row map.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/assign        single {"features":[...]} or batch
//	                       {"rows":[{"features":[...],"sensitive":{...}},...]};
//	                       optional "model" (default: first loaded) and
//	                       "raw" (apply the artifact's feature scaling);
//	                       answers compact JSON
//	                       {"model":...,"generation":...,"assignments":
//	                       [{"cluster":...,"distance":...},...]}
//	GET  /v1/models        loaded models with provenance, serving stats
//	                       (counted across hot reloads of the name) and
//	                       the live model's fairness drift reports
//	POST /v1/models/reload {"model":"name","path":"optional new path"} —
//	                       atomic hot-swap; in-flight requests finish on
//	                       the old model. An unknown model answers 404,
//	                       a missing or broken artifact 400
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text exposition of the metric
//	                       registry internal/serve counts into: per-model
//	                       counters and full-fidelity latency histograms
//	                       (including per-stage request spans), which
//	                       span hot reloads, plus the live model's
//	                       generation, admission and drift gauges
//	GET  /debug/traces     the slowest recent requests as span traces
//	                       (admission/queue/score/total breakdown)
//
// With -debug-addr set, net/http/pprof is served on that address on a
// separate mux — profiling endpoints never share the serving listener,
// and are entirely off by default.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight requests complete, worker pools drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() { cli.Main("fairserved", run) }

// run parses flags and serves until a termination signal. Split from
// main for testability; serveCtx carries the cancelable body.
func run(args []string, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveCtx(ctx, args, out)
}

// modelList collects repeated -model flags as name=path or bare paths.
type modelList []string

func (m *modelList) String() string { return strings.Join(*m, ",") }

func (m *modelList) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func serveCtx(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fairserved", flag.ContinueOnError)
	fs.SetOutput(out)
	var models modelList
	fs.Var(&models, "model", "model artifact to serve, as PATH or NAME=PATH (repeatable; first is the default model)")
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		batch   = fs.Int("batch", 0, "micro-batch size per worker task (0 = 64)")
		workers = fs.Int("workers", 0, "scoring workers per model (0 = GOMAXPROCS)")

		maxConc     = fs.Int("max-concurrent", 0, "max concurrent batches per model (0 = unlimited, no admission control)")
		maxQueue    = fs.Int("max-queue", 0, "admission queue depth per model before shedding (0 = default, requires -max-concurrent)")
		queueBudget = fs.Duration("queue-budget", 0, "shed when estimated queue wait exceeds this (0 = queue-depth limit only, requires -max-concurrent)")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request deadline; expired requests get HTTP 503 (0 = none)")
		maxBody     = fs.Int64("max-body", defaultMaxBody, "largest accepted request body in bytes")
		shutTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this address, on its own mux (empty = profiling off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(models) == 0 {
		fs.Usage()
		return fmt.Errorf("at least one -model is required")
	}
	if *maxConc < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0, got %d", *maxConc)
	}
	if *maxConc == 0 && (*maxQueue != 0 || *queueBudget != 0) {
		return fmt.Errorf("-max-queue and -queue-budget require -max-concurrent > 0")
	}
	if *maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0, got %d", *maxQueue)
	}
	if *queueBudget < 0 {
		return fmt.Errorf("-queue-budget must be >= 0, got %v", *queueBudget)
	}
	if *reqTimeout < 0 {
		return fmt.Errorf("-request-timeout must be >= 0, got %v", *reqTimeout)
	}
	if *maxBody <= 0 {
		return fmt.Errorf("-max-body must be > 0, got %d", *maxBody)
	}
	if *shutTimeout <= 0 {
		return fmt.Errorf("-shutdown-timeout must be > 0, got %v", *shutTimeout)
	}

	metrics := telemetry.NewRegistry()
	reg := serve.NewRegistry(serve.Options{
		BatchSize:     *batch,
		Workers:       *workers,
		Metrics:       metrics,
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQueue,
		QueueBudget:   *queueBudget,
	})
	defer reg.Close()
	for _, spec := range models {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		e, err := reg.Load(name, path)
		if err != nil {
			return err
		}
		m := e.Model()
		fmt.Fprintf(out, "loaded %q from %s (k=%d dim=%d lambda=%.4g, trained by %s on %d rows)\n",
			e.Name, path, m.K, m.Dim(), m.Lambda, m.Provenance.Tool, m.Provenance.Rows)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		debugSrv := &http.Server{Handler: newDebugMux()}
		defer debugSrv.Close() //fairvet:ignore errflow -- best-effort debug server teardown at process exit
		//fairvet:ignore errflow -- Serve always returns non-nil on shutdown; the debug listener is best-effort
		go func() { _ = debugSrv.Serve(dln) }() // best-effort; dies with the process
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newHandler(reg, metrics, handlerOptions{
		RequestTimeout: *reqTimeout,
		MaxBody:        *maxBody,
	})}
	fmt.Fprintf(out, "listening on http://%s (default model %q)\n", ln.Addr(), reg.Default())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "shutting down")
		//fairvet:ignore ctxflow -- ctx is already done once shutdown starts; the drain grace period needs a fresh root with its own deadline
		sctx, cancel := context.WithTimeout(context.Background(), *shutTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		return nil
	case err := <-errCh:
		return err
	}
}

// ---- HTTP API ----

type modelInfo struct {
	Name       string           `json:"name"`
	Path       string           `json:"path,omitempty"`
	Default    bool             `json:"default"`
	Generation int              `json:"generation"`
	LoadedAt   time.Time        `json:"loaded_at"`
	K          int              `json:"k"`
	Lambda     float64          `json:"lambda"`
	Dim        int              `json:"dim"`
	Features   []string         `json:"features,omitempty"`
	Provenance model.Provenance `json:"provenance"`
	Requests   uint64           `json:"requests"`
	Rows       uint64           `json:"rows"`
	Shed       uint64           `json:"shed"`
	Deadline   uint64           `json:"deadline"`
	Inflight   int              `json:"inflight"`
	Queued     int              `json:"queued"`
	P50Millis  float64          `json:"p50_ms"`
	P99Millis  float64          `json:"p99_ms"`
	P999Millis float64          `json:"p999_ms"`
	Drift      []driftInfo      `json:"drift,omitempty"`
}

type driftInfo struct {
	Attribute    string  `json:"attribute"`
	ObservedRows uint64  `json:"observed_rows"`
	MaxTV        float64 `json:"max_tv"`
	TrainingAE   float64 `json:"training_ae"`
	ObservedAE   float64 `json:"observed_ae"`
	TrainingMW   float64 `json:"training_mw"`
	ObservedMW   float64 `json:"observed_mw"`
}

type reloadRequest struct {
	Model string `json:"model,omitempty"`
	Path  string `json:"path,omitempty"`
}

// defaultMaxBody bounds request bodies when -max-body is not set.
const defaultMaxBody = 32 << 20

// handlerOptions carries the per-request hardening knobs into the API.
type handlerOptions struct {
	// RequestTimeout caps each /v1/assign request (0 = none).
	RequestTimeout time.Duration
	// MaxBody bounds request bodies in bytes (0 = defaultMaxBody).
	MaxBody int64
}

func (o handlerOptions) maxBody() int64 {
	if o.MaxBody <= 0 {
		return defaultMaxBody
	}
	return o.MaxBody
}

// newHandler builds the fairserved HTTP API over a serving registry
// and the metric registry its models count into.
func newHandler(reg *serve.Registry, metrics *telemetry.Registry, opts handlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": len(reg.List())})
	})
	mux.HandleFunc("/v1/assign", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		handleAssign(reg, opts, w, r)
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"default": reg.Default(),
			"models":  modelInfos(reg),
		})
	})
	mux.HandleFunc("/v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req reloadRequest
		if err := decodeJSON(w, r, &req, opts.maxBody()); err != nil {
			httpError(w, bodyErrStatus(err), err.Error())
			return
		}
		// An unknown name is a 404, as on /v1/assign; a missing or
		// broken artifact fails Reload with a 400.
		cur, err := reg.Get(req.Model)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		e, err := reg.Reload(cur.Name, req.Path)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"model":      e.Name,
			"path":       e.Path,
			"generation": e.Generation,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentType)
		_ = metrics.WritePrometheus(w) //fairvet:ignore errflow -- write failure means the scraper hung up; no channel left to report on
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		traces := slowest(reg)
		if traces == nil {
			traces = []telemetry.Trace{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
	})
	return mux
}

func handleAssign(reg *serve.Registry, opts handlerOptions, w http.ResponseWriter, r *http.Request) {
	bp, err := readBody(w, r, opts.maxBody())
	if err != nil {
		httpError(w, bodyErrStatus(err), err.Error())
		return
	}
	defer putBuf(bp) // the decoder's spans point into the body
	d := getDecoder()
	defer putDecoder(d)
	if err := d.decode(*bp); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	single := d.top.features.set
	if single == (len(d.rows) > 0) {
		httpError(w, http.StatusBadRequest, "provide exactly one of \"features\" (single) or \"rows\" (batch)")
		return
	}
	e, err := reg.Get(d.model)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	a := e.Assigner()
	m := e.Model()

	objs := d.rows
	if single {
		objs = []object{d.top}
	}
	features := make([][]float64, len(objs))
	var labels *serve.Labels
	for i, o := range objs {
		x := d.features(o.features)
		if d.raw && m.Scaling != nil && len(x) == m.Dim() {
			m.Scaling.Apply(x) // in place: the decoded slab belongs to this request
		}
		features[i] = x
		if o.sensitive.set {
			if labels == nil {
				labels = a.NewLabels(len(objs))
			}
			d.label(labels, i, o.sensitive)
		}
	}
	ctx := r.Context()
	if opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.RequestTimeout)
		defer cancel()
	}
	clusters, dists, err := a.AssignLabelled(ctx, features, labels)
	if err != nil {
		var shed *serve.ShedError
		switch {
		case errors.As(err, &shed):
			// Overload: tell well-behaved clients when to come back.
			secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		default:
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	rp := bufPool.Get().(*[]byte)
	*rp = appendAssignResponse((*rp)[:0], e.Name, e.Generation, clusters, dists)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*rp)))
	w.WriteHeader(http.StatusOK)
	w.Write(*rp) //fairvet:ignore errflow -- status line already sent; a write error means the client hung up
	putBuf(rp)
}

func modelInfos(reg *serve.Registry) []modelInfo {
	def := reg.Default()
	var infos []modelInfo
	for _, e := range reg.List() {
		m := e.Model()
		st := e.Assigner().Stats()
		info := modelInfo{
			Name:       e.Name,
			Path:       e.Path,
			Default:    e.Name == def,
			Generation: e.Generation,
			LoadedAt:   e.LoadedAt,
			K:          m.K,
			Lambda:     m.Lambda,
			Dim:        m.Dim(),
			Features:   m.FeatureNames,
			Provenance: m.Provenance,
			Requests:   st.Requests,
			Rows:       st.Rows,
			Shed:       st.Shed,
			Deadline:   st.Deadline,
			Inflight:   st.Inflight,
			Queued:     st.Queued,
			P50Millis:  float64(st.P50) / float64(time.Millisecond),
			P99Millis:  float64(st.P99) / float64(time.Millisecond),
			P999Millis: float64(st.P999) / float64(time.Millisecond),
		}
		for _, d := range e.Assigner().Drift() {
			info.Drift = append(info.Drift, driftInfo{
				Attribute:    d.Attribute,
				ObservedRows: d.ObservedRows,
				MaxTV:        d.MaxTV,
				TrainingAE:   d.Training.AE,
				ObservedAE:   d.Observed.AE,
				TrainingMW:   d.Training.MW,
				ObservedMW:   d.Observed.MW,
			})
		}
		infos = append(infos, info)
	}
	return infos
}

// decodeJSON strictly decodes one JSON body of at most maxBody bytes:
// unknown fields, trailing non-whitespace, and oversized payloads are
// all rejected rather than silently accepted or read unboundedly. The
// *http.MaxBytesError from an oversized body is preserved in the wrap
// so bodyErrStatus can map it to 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, maxBody int64) error {
	bp, err := readBody(w, r, maxBody)
	if err != nil {
		return err
	}
	defer putBuf(bp)
	dec := json.NewDecoder(bytes.NewReader(*bp))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if len(bytes.TrimLeft((*bp)[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// bodyErrStatus maps a decodeJSON failure to its status: 413 when the
// body blew the -max-body bound, 400 for everything else.
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //fairvet:ignore errflow -- status line already sent; an encode error has no channel back to the client
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
