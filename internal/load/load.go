// Package load is the open-loop traffic harness for the fairserved
// serving stack: it replays heavy-tailed (Zipf) assignment traffic at a
// fixed offered rate and reports the full latency distribution, SLO
// attainment and a shed/deadline/error breakdown.
//
// # Open loop, not closed loop
//
// A closed-loop benchmark (issue request, wait, issue the next) lets a
// slow server throttle its own load: every stall pauses the generator,
// so the recorded latencies silently omit exactly the moments the
// server was worst — coordinated omission. This harness is open-loop:
// the complete request schedule is computed up front from the offered
// rate (request i fires at i/rate), and a request is launched at its
// scheduled time whether or not earlier ones have returned. A server
// that cannot keep up accumulates queue, sheds, or blows deadlines —
// all of which the report shows — but it can never slow the offered
// load down.
//
// # Determinism
//
// Build derives the entire workload — send times, Zipf batch sizes,
// Zipf model choices, feature payloads — from Config.Seed via
// stats.RNG before anything is sent. At a fixed seed the schedule and
// payload byte sequence are identical across runs and independent of
// server speed (pinned by Workload.Fingerprint in the tests). Run only
// consumes the prebuilt workload; it draws no randomness.
//
// Targets: RegistryTarget drives an in-process serve.Registry (race-
// clean deterministic tests, no network noise); HTTPTarget drives a
// live fairserved over keep-alive connections (cmd/fairload).
package load

// The workload-construction half of the package (Build and everything
// it calls) is deterministic by contract — see the Determinism section
// above; Fingerprint pins it in the tests. Run (report.go) is the
// wall-clock half and stays out of scope.
//fairvet:deterministic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxBatch  = 16
	DefaultZipfBatch = 1.2
	DefaultZipfModel = 1.1
)

// Config parameterizes a workload.
type Config struct {
	// Rate is the offered load in requests/second (> 0). Send times are
	// fixed up front: request i fires at i/Rate.
	Rate float64 `json:"rate_rps"`
	// Requests is how many requests the workload contains (> 0).
	Requests int `json:"requests"`
	// Seed drives every random choice (batch sizes, model picks,
	// feature payloads).
	Seed int64 `json:"seed"`
	// Dim is the feature dimensionality of generated rows (> 0; must
	// match the served model).
	Dim int `json:"dim"`
	// MaxBatch bounds the Zipf-distributed rows-per-request batch size;
	// <= 0 means DefaultMaxBatch. Batch b has probability ∝ 1/b^ZipfBatch
	// — mostly singletons with a heavy tail of big batches.
	MaxBatch int `json:"max_batch"`
	// ZipfBatch is the batch-size Zipf exponent; <= 0 means
	// DefaultZipfBatch (must be >= 1 otherwise).
	ZipfBatch float64 `json:"zipf_batch"`
	// Models are the served model names traffic is spread over with
	// Zipf(ZipfModel) popularity (first name is the hottest). Empty
	// means one request stream to the server's default model.
	Models []string `json:"models,omitempty"`
	// ZipfModel is the model-popularity Zipf exponent; <= 0 means
	// DefaultZipfModel (must be >= 1 otherwise).
	ZipfModel float64 `json:"zipf_model"`
	// Timeout is the per-request client deadline; requests that exceed
	// it count as deadline failures. 0 = none.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// SLO, when > 0, is the target p99 latency the report grades
	// accepted requests against (rows/s at p99 ≤ SLO).
	SLO time.Duration `json:"slo_ns,omitempty"`
}

func (c Config) withDefaults() (Config, error) {
	if !(c.Rate > 0) {
		return c, fmt.Errorf("load: rate %v must be positive", c.Rate)
	}
	if c.Requests <= 0 {
		return c, fmt.Errorf("load: requests %d must be positive", c.Requests)
	}
	if c.Dim <= 0 {
		return c, fmt.Errorf("load: dim %d must be positive", c.Dim)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.ZipfBatch <= 0 {
		c.ZipfBatch = DefaultZipfBatch
	}
	if c.ZipfModel <= 0 {
		c.ZipfModel = DefaultZipfModel
	}
	if c.ZipfBatch < 1 || c.ZipfModel < 1 {
		return c, fmt.Errorf("load: zipf exponents (%v, %v) must be >= 1", c.ZipfBatch, c.ZipfModel)
	}
	if c.Timeout < 0 || c.SLO < 0 {
		return c, fmt.Errorf("load: timeout %v and slo %v must be non-negative", c.Timeout, c.SLO)
	}
	return c, nil
}

// Request is one scheduled request of the workload.
type Request struct {
	// N is the request's position in the schedule.
	N int
	// At is the scheduled send offset from the run start. It depends
	// only on N and Config.Rate — never on how the server behaves.
	At time.Duration
	// Model is the target model name ("" = server default).
	Model string
	// Rows are the feature payloads.
	Rows [][]float64
}

// Body renders the request as the canonical /v1/assign JSON body. The
// encoding is deterministic (fixed field order, shortest-round-trip
// floats), so the workload's payload byte sequence is reproducible.
func (r *Request) Body() []byte {
	type row struct {
		Features []float64 `json:"features"`
	}
	payload := struct {
		Model string `json:"model,omitempty"`
		Rows  []row  `json:"rows"`
	}{Model: r.Model}
	payload.Rows = make([]row, len(r.Rows))
	for i, x := range r.Rows {
		payload.Rows[i] = row{Features: x}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		// Rows are finite float64s generated here; Marshal cannot fail.
		panic(fmt.Sprintf("load: encoding request body: %v", err))
	}
	return b
}

// Workload is a fully materialized open-loop request schedule.
type Workload struct {
	Config    Config
	Requests  []Request
	TotalRows int
}

// Fingerprint hashes the complete schedule and payload byte sequence —
// two workloads with equal fingerprints would put identical bytes on
// the wire at identical offsets.
func (w *Workload) Fingerprint() string {
	h := sha256.New()
	for i := range w.Requests {
		r := &w.Requests[i]
		fmt.Fprintf(h, "%d|%d|", r.N, r.At.Nanoseconds())
		// The directive below also covers the next line.
		h.Write(r.Body()) //fairvet:ignore errflow -- hash.Hash.Write never returns an error
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Build materializes the workload for cfg: the full schedule and every
// payload, before anything is sent. Deterministic in Config.Seed.
func Build(cfg Config) (*Workload, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	interval := float64(time.Second) / cfg.Rate
	w := &Workload{Config: cfg, Requests: make([]Request, cfg.Requests)}
	for i := range w.Requests {
		batch := 1 + rng.Zipf(cfg.MaxBatch, cfg.ZipfBatch)
		name := ""
		if len(cfg.Models) > 0 {
			name = cfg.Models[rng.Zipf(len(cfg.Models), cfg.ZipfModel)]
		}
		rows := make([][]float64, batch)
		for r := range rows {
			x := make([]float64, cfg.Dim)
			for j := range x {
				x[j] = rng.Gaussian(0, 1)
			}
			rows[r] = x
		}
		w.Requests[i] = Request{
			N:     i,
			At:    time.Duration(float64(i) * interval),
			Model: name,
			Rows:  rows,
		}
		w.TotalRows += batch
	}
	return w, nil
}
