package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// Class is the outcome classification of one request.
type Class int

const (
	// ClassOK: the request was accepted and answered.
	ClassOK Class = iota
	// ClassShed: the server rejected the request under admission
	// control (ShedError in-process, HTTP 429 over the wire).
	ClassShed
	// ClassDeadline: the request's deadline expired — client timeout,
	// context expiry, or a server 503.
	ClassDeadline
	// ClassError: anything else (transport failure, 4xx/5xx).
	ClassError
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassShed:
		return "shed"
	case ClassDeadline:
		return "deadline"
	default:
		return "error"
	}
}

// Outcome is what one request produced.
type Outcome struct {
	Class Class
	// Latency is send-to-response wall time (filled by Run when the
	// target leaves it zero).
	Latency time.Duration
	// Rows is how many rows were labelled (ClassOK only).
	Rows int
	// Err samples the failure for the report's first-error line.
	Err error
}

// Target consumes one scheduled request. Implementations must be safe
// for concurrent use: the open-loop runner fires overlapping requests.
type Target interface {
	Do(ctx context.Context, req *Request) Outcome
}

// RegistryTarget drives an in-process serve.Registry — the harness and
// the serving stack in one process, deterministic and race-checkable,
// with no network in the measurement.
type RegistryTarget struct {
	Registry *serve.Registry
}

// Do resolves the model and scores the batch under ctx. The latency it
// reports is the AssignBatchCtx call alone — the interval the served
// model's latency histogram records — not the model lookup before it.
func (t *RegistryTarget) Do(ctx context.Context, req *Request) Outcome {
	e, err := t.Registry.Get(req.Model)
	if err != nil {
		return Outcome{Class: ClassError, Err: err}
	}
	sent := time.Now()
	_, _, err = e.Assigner().AssignBatchCtx(ctx, req.Rows, nil)
	o := Outcome{Latency: time.Since(sent), Err: err}
	switch {
	case err == nil:
		o.Class, o.Rows = ClassOK, len(req.Rows)
	case serve.IsShed(err):
		o.Class = ClassShed
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		o.Class = ClassDeadline
	default:
		o.Class = ClassError
	}
	return o
}

// HTTPTarget drives a live fairserved over HTTP, reusing keep-alive
// connections so the harness measures the server, not TCP handshakes.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client overrides the default keep-alive client when non-nil.
	Client *http.Client
}

// httpClient is the shared keep-alive client: enough idle connections
// per host that an open-loop burst never pays connection setup.
var httpClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
	},
}

func (t *HTTPTarget) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return httpClient
}

// Do POSTs the request body to /v1/assign and classifies the response:
// 200 OK, 429 shed, 503 (or a context/client timeout) deadline,
// anything else an error.
func (t *HTTPTarget) Do(ctx context.Context, req *Request) Outcome {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+"/v1/assign", bytes.NewReader(req.Body()))
	if err != nil {
		return Outcome{Class: ClassError, Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(hreq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return Outcome{Class: ClassDeadline, Err: err}
		}
		return Outcome{Class: ClassError, Err: err}
	}
	// Drain so the connection returns to the keep-alive pool.
	defer func() {
		// The directive below also covers the Close on the next line.
		io.Copy(io.Discard, resp.Body) //fairvet:ignore errflow -- best-effort drain and close for connection reuse; the outcome was already classified
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		return Outcome{Class: ClassOK, Rows: len(req.Rows)}
	case http.StatusTooManyRequests:
		return Outcome{Class: ClassShed, Err: fmt.Errorf("shed (retry after %ss)", resp.Header.Get("Retry-After"))}
	case http.StatusServiceUnavailable:
		return Outcome{Class: ClassDeadline, Err: errors.New("server deadline (503)")}
	default:
		return Outcome{Class: ClassError, Err: fmt.Errorf("http %d", resp.StatusCode)}
	}
}

// FetchDim asks a fairserved instance for the feature dimensionality of
// model (`""` = its default model) via GET /v1/models, so fairload can
// generate matching payloads without a local artifact.
func FetchDim(baseURL, model string) (int, error) {
	resp, err := httpClient.Get(baseURL + "/v1/models")
	if err != nil {
		return 0, fmt.Errorf("load: fetching model schema: %w", err)
	}
	defer resp.Body.Close() //fairvet:ignore errflow -- response body close; nothing was buffered to lose
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("load: fetching model schema: http %d", resp.StatusCode)
	}
	var body struct {
		Default string `json:"default"`
		Models  []struct {
			Name string `json:"name"`
			Dim  int    `json:"dim"`
		} `json:"models"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&body); err != nil {
		return 0, fmt.Errorf("load: decoding model schema: %w", err)
	}
	if model == "" {
		model = body.Default
	}
	for _, m := range body.Models {
		if m.Name == model {
			if m.Dim <= 0 {
				return 0, fmt.Errorf("load: model %q reports dim %d", model, m.Dim)
			}
			return m.Dim, nil
		}
	}
	return 0, fmt.Errorf("load: server does not serve model %q", model)
}
