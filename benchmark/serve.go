package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/data/adult"
	"repro/internal/dataset"
	"repro/internal/model"
)

// serveSpec is one serving workload.
type serveSpec struct {
	// slo is the p99 latency limit of a knee probe, timed from each
	// request's due time.
	slo time.Duration
	// fixedRate is the offered request rate of the warm-up and of the
	// traced fixed-rate phases, and where the knee search starts: about
	// a third of serve-small's knee and half of serve-bulk's
	// (README.md, "Calibration").
	fixedRate float64
	// bulk sends 512-row batches carrying their sensitive values;
	// otherwise batches are Zipf(1.2) over 1–16 unlabelled rows.
	bulk bool
}

var serveSpecs = map[string]serveSpec{
	wSmall: {slo: 25 * time.Millisecond, fixedRate: 3000},
	wBulk:  {slo: 100 * time.Millisecond, fixedRate: 100, bulk: true},
}

const (
	// loadConns is both the number of keep-alive load connections and
	// fairserved's -workers: the reference box's nproc.
	loadConns = 2
	bulkRows  = 512
	// smallRing is how many distinct Zipf batches serve-small cycles.
	smallRing = 2048
	maxProbes = 9
	// segmentLen is the length of one untraced closed-loop segment in
	// a run of 10 s or more.
	segmentLen = time.Second
	// overLimit stands for a failed request's latency: over any SLO.
	overLimit = int64(time.Hour)
)

// batch is one pre-encoded request with its oracle answer.
type batch struct {
	body     []byte
	scaled   [][]float64 // the rows in trained space, for in-process replay
	sens     []map[string]string
	clusters []int
	dists    []float64
}

type wireRow struct {
	Features  []float64         `json:"features"`
	Sensitive map[string]string `json:"sensitive,omitempty"`
}

// buildRing cuts the held-out rows into the workload's batches, encodes
// each as a /v1/assign body with raw features, and answers it with
// model.AssignDist on the loaded artifact.
func buildRing(held *dataset.Dataset, m *model.Model, bulk bool, rng *rand.Rand) ([]*batch, error) {
	var sizes []int
	if bulk {
		sizes = make([]int, max(1, held.N()/bulkRows))
		for i := range sizes {
			sizes[i] = bulkRows
		}
	} else {
		sizes = zipfSizes(rng, smallRing, 16, 1.2)
	}
	ring := make([]*batch, len(sizes))
	pos := 0
	for bi, size := range sizes {
		b := &batch{}
		rows := make([]wireRow, size)
		for j := range rows {
			i := pos % held.N()
			pos++
			raw := append([]float64(nil), held.Features[i]...)
			sens := make(map[string]string, len(held.Sensitive))
			for _, a := range held.Sensitive {
				sens[a.Name] = a.Values[a.Codes[i]]
			}
			x := append([]float64(nil), raw...)
			m.Scaling.Apply(x)
			c, d := m.AssignDist(x)
			b.scaled = append(b.scaled, x)
			b.sens = append(b.sens, sens)
			b.clusters = append(b.clusters, c)
			b.dists = append(b.dists, d)
			rows[j].Features = raw
			if bulk {
				rows[j].Sensitive = sens
			}
		}
		body, err := json.Marshal(struct {
			Raw  bool      `json:"raw"`
			Rows []wireRow `json:"rows"`
		}{true, rows})
		if err != nil {
			return nil, err
		}
		b.body = body
		ring[bi] = b
	}
	return ring, nil
}

// matches reports whether a 200 body assigns every row as the oracle
// does.
func (b *batch) matches(body []byte) bool {
	var resp struct {
		Assignments []struct {
			Cluster  int     `json:"cluster"`
			Distance float64 `json:"distance"`
		} `json:"assignments"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Assignments) != len(b.clusters) {
		return false
	}
	for i, a := range resp.Assignments {
		if a.Cluster != b.clusters[i] || !relClose(a.Distance, b.dists[i], 1e-9) {
			return false
		}
	}
	return true
}

// server is a running fairserved process.
type server struct {
	cmd  *exec.Cmd
	addr string
	eof  chan struct{} // closed once the process's stdout is drained
}

func startServer(bin, modelPath string, spec serveSpec) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "fairserved"),
		"-model", "bench="+modelPath, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(loadConns),
		"-max-concurrent", "2", "-max-queue", "64", "-queue-budget", (spec.slo / 2).String())
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.eof:
		return nil, fmt.Errorf("fairserved exited before listening: %v", cmd.Wait())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("fairserved did not start listening within 30s")
	}
}

// stop shuts the server down gracefully, killing it if it has not
// exited within 15 s, and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.eof:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.eof
	}
	return s.cmd.Wait()
}

// serveEnv is a serve workload's set-up: the served model, its traffic
// and the server answering it.
type serveEnv struct {
	path    string
	model   *model.Model // as loaded back from the artifact
	ring    []*batch
	srv     *server
	hc      *http.Client
	base    string
	sse, ae float64 // quality of the served model on its training data

	scrapeMu    sync.Mutex
	scrapeTimes []float64 // ms
	scrapeBytes int
}

// serveSetup generates the training table, fits the served model,
// saves and reloads its artifact, builds the traffic from a held-out
// table and starts fairserved, returning once /healthz answers. With a
// recorder it traces each step under parent and reports the fit.
func serveSetup(o *opts, spec serveSpec, rec *Recorder, parent int64) (*serveEnv, *fitStats, error) {
	rows := o.scale(adult.FullSize)
	id := rec.Begin("data.generate", parent)
	ds, scaling, err := genAdult(o.seed, rows)
	rec.End(id)
	if err != nil {
		return nil, nil, err
	}
	var res *fairclust.Result
	var reps []fairclust.FairnessReport
	var fs *fitStats
	if rec != nil {
		var st fitStats
		res, reps, st, err = tracedFit(ds, fitConfig(o.seed), rec, parent)
		fs = &st
	} else if res, err = fairclust.Run(ds, fitConfig(o.seed)); err == nil {
		reps = fairclust.Fairness(ds, res.Assign, fitK)
	}
	if err != nil {
		return nil, nil, err
	}
	e := &serveEnv{path: filepath.Join(o.work, "model.json"), sse: res.KMeansTerm, ae: meanAE(reps)}
	// A fixed CreatedAt keeps the artifact's bytes, and so its sha256,
	// a function of the seed alone.
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "benchmark", CreatedAt: "2000-01-01T00:00:00Z"})
	if err != nil {
		return nil, nil, err
	}
	m.Scaling = scaling
	id = rec.Begin("model.save", parent)
	err = model.Save(e.path, m)
	rec.End(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.Begin("model.load", parent)
	e.model, err = model.Load(e.path)
	rec.End(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.Begin("data.generate", parent)
	held, err := adult.Generate(adult.Config{Seed: o.seed + 1000, Rows: rows})
	rec.End(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.Begin("ring", parent)
	e.ring, err = buildRing(held, e.model, spec.bulk, rand.New(rand.NewSource(o.seed)))
	rec.End(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.Begin("server.start", parent)
	defer rec.End(id)
	if e.srv, err = startServer(o.bin, e.path, spec); err != nil {
		return nil, nil, err
	}
	e.base = "http://" + e.srv.addr
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        loadConns,
		MaxIdleConnsPerHost: loadConns,
		MaxConnsPerHost:     loadConns,
		DisableCompression:  true,
	}}
	if err := e.waitHealthy(); err != nil {
		e.close()
		return nil, nil, err
	}
	return e, fs, nil
}

func (e *serveEnv) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := e.hc.Get(e.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fairserved /healthz: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (e *serveEnv) close() error {
	e.hc.CloseIdleConnections()
	return e.srv.stop()
}

// noteInputs prints the sha256 of the artifact and of the traffic.
func (e *serveEnv) noteInputs(r *report) error {
	sum, err := hashFile(e.path)
	if err != nil {
		return err
	}
	h := sha256.New()
	rows := 0
	for _, b := range e.ring {
		h.Write(b.body)
		rows += len(b.clusters)
	}
	r.note("input %s.model sha256=%s", r.workload, sum)
	r.note("input %s.requests batches=%d rows=%d sha256=%s", r.workload, len(e.ring), rows, hex.EncodeToString(h.Sum(nil)))
	return nil
}

// scrape fetches and parses /metrics, recording how long it took and
// how large it was.
func (e *serveEnv) scrape() (map[string]float64, error) {
	t0 := time.Now()
	resp, err := e.hc.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	e.scrapeMu.Lock()
	e.scrapeTimes = append(e.scrapeTimes, ms(d))
	e.scrapeBytes += len(body)
	e.scrapeMu.Unlock()
	return parseProm(body), nil
}

// scrapeLoop scrapes /metrics once a second, as a monitoring system
// would, until stop is closed; it closes done when it returns.
func (e *serveEnv) scrapeLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			// A failed scrape only leaves a gap in telemetry.scrape_*.
			_, _ = e.scrape()
		}
	}
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// promSum sums the series of a family whose labels contain label.
func promSum(m map[string]float64, family, label string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, family+"{") && strings.Contains(k, label) {
			s += v
		}
	}
	return s
}

// outcome is what happened to one scheduled request; times are offsets
// from the phase start.
type outcome struct {
	due, pickup, sent, done time.Duration
	slept                   bool // the sender idled until the due time
	status                  int  // 0 when never sent or failed in transport
	rows                    int
	reqBytes, respBytes     int
	wrong                   bool // a 200 that disagreed with the oracle
}

// phase is one open-loop run of a schedule.
type phase struct {
	dur, hardStop time.Duration
	outs          []outcome
	wall          time.Duration
	clientCPU     time.Duration
}

// run offers the schedule open-loop over loadConns keep-alive
// connections: each connection's sender takes the next request, sleeps
// until it is due if it is early, and sends it. A request still unsent
// at hardStop is dropped and counts as failed. With a recorder, each
// request becomes a span tree.
func (e *serveEnv) run(sched []time.Duration, dur, hardStop time.Duration, rec *Recorder) *phase {
	p := &phase{dur: dur, hardStop: hardStop, outs: make([]outcome, len(sched))}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	t0 := time.Now()
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				oc := &p.outs[i]
				oc.due = sched[i]
				b := e.ring[i%len(e.ring)]
				oc.rows = len(b.clusters)
				if time.Since(t0) < oc.due {
					sleepUntil(t0.Add(oc.due))
					oc.slept = true
				}
				oc.pickup = time.Since(t0)
				if oc.pickup > hardStop {
					continue
				}
				e.send(b, oc, t0)
				if rec != nil {
					root := rec.Add("request", 0, t0.Add(oc.due), t0.Add(oc.done))
					if oc.pickup > oc.due {
						name := "load.conn_wait"
						if oc.slept {
							name = "load.lag"
						}
						rec.Add(name, root, t0.Add(oc.due), t0.Add(oc.pickup))
					}
					rec.Add("http.roundtrip", root, t0.Add(oc.sent), t0.Add(oc.done))
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.clientCPU = selfCPU() - cpu0
	return p
}

func (e *serveEnv) send(b *batch, oc *outcome, t0 time.Time) {
	oc.reqBytes = len(b.body)
	req, err := http.NewRequest(http.MethodPost, e.base+"/v1/assign", bytes.NewReader(b.body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	oc.sent = time.Since(t0)
	resp, err := e.hc.Do(req)
	if err != nil {
		oc.done = time.Since(t0)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	oc.done = time.Since(t0)
	if err != nil {
		return
	}
	oc.status = resp.StatusCode
	oc.respBytes = len(body)
	if oc.status == http.StatusOK {
		oc.wrong = !b.matches(body)
	}
}

// phaseSum summarizes a phase. Latency is timed from each request's
// due time, and a failed request counts as over any limit.
type phaseSum struct {
	total, sent, ok, failed, wrong, okRows int
	lat, lag                               *Hist
	connWait, roundTrip                    time.Duration // sums
	reqBytes, respBytes                    int
	// lastDue and lastDone count requests due, and completed, in the
	// phase's last second (its second half, if shorter): a growing
	// backlog completes fewer.
	lastDue, lastDone int
}

func (p *phase) summarize() *phaseSum {
	s := &phaseSum{lat: NewHist(), lag: NewHist()}
	from := p.dur - min(time.Second, p.dur/2)
	for i := range p.outs {
		oc := &p.outs[i]
		s.total++
		if oc.due >= from {
			s.lastDue++
		}
		if oc.slept {
			s.lag.Record(int64(oc.pickup - oc.due))
		} else {
			s.connWait += oc.pickup - oc.due
		}
		if oc.wrong {
			s.wrong++
		}
		if oc.pickup <= p.hardStop {
			s.sent++
			s.reqBytes += oc.reqBytes
			s.respBytes += oc.respBytes
		}
		if oc.pickup > p.hardStop || oc.status != http.StatusOK || oc.wrong {
			s.failed++
			s.lat.Record(overLimit)
			continue
		}
		s.ok++
		s.okRows += oc.rows
		s.lat.Record(int64(oc.done - oc.due))
		s.roundTrip += oc.done - oc.sent
		if oc.done >= from && oc.done < p.dur {
			s.lastDone++
		}
	}
	return s
}

// passes is the knee criterion: p99 within the SLO, at most 1% failed,
// and no growing backlog.
func (s *phaseSum) passes(slo time.Duration) bool {
	return s.lat.Quantile(0.99) <= float64(slo) &&
		float64(s.failed) <= 0.01*float64(s.total) &&
		float64(s.lastDone) >= 0.95*float64(s.lastDue)
}

// phaseSeed derives a phase's schedule seed from the run's seed.
func phaseSeed(seed int64, phase int) int64 { return seed*1009 + int64(phase) }

func runServe(o *opts, r *report) error {
	spec := serveSpecs[o.workload]
	if o.trace {
		return serveTraced(o, r, spec)
	}
	cal := newCalibration()
	var env *serveEnv
	setup, err := timeSetup(cal, o.setupBudget(), func() (err error) {
		env, _, err = serveSetup(o, spec, nil, 0)
		return err
	}, func() error { return env.close() })
	if err != nil {
		if env != nil {
			env.close()
		}
		return err
	}
	if err := env.noteInputs(r); err != nil {
		env.close()
		return err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go env.scrapeLoop(stop, done)

	// Warm up open-loop at the fixed rate. Then alternate two kinds of
	// segment, each between calibration brackets: saturation, where
	// every load connection sends back to back, and one client that
	// sends its next request when the reply to the last has arrived.
	warm := o.seconds / 25
	ws := env.run(PoissonSchedule(phaseSeed(o.seed, 0), spec.fixedRate, warm), warm, warm+2*time.Second, nil).summarize()
	r.attempted += ws.total
	r.failed += ws.failed
	wrong := ws.wrong
	var rates, lats, rawRates, rawLats []float64
	segLen := min(segmentLen, o.seconds/10)
	start := time.Now()
	var last time.Duration
	for i := 0; i < 2*minOps || time.Since(start)+last <= o.seconds-warm; i++ {
		t0 := time.Now()
		conns := loadConns
		if i%2 == 1 {
			conns = 1
		}
		var seg *loopResult
		wall, slow, _ := cal.time(func() error {
			seg = env.closedLoop(conns, segLen)
			return nil
		})
		last = time.Since(t0)
		r.attempted += seg.sent
		r.failed += seg.failed
		wrong += seg.wrong
		switch {
		case conns > 1:
			rate := float64(seg.rows) / wall.Seconds()
			rates, rawRates = append(rates, rate*slow), append(rawRates, rate)
		case len(seg.rtts) > 0:
			rtt := median(seg.rtts)
			lats, rawLats = append(lats, rtt/slow), append(rawLats, rtt)
		}
	}
	rss, rssErr := procStatusMB(env.srv.cmd.Process.Pid, "VmHWM")
	close(stop)
	<-done
	if err := env.close(); err != nil {
		return fmt.Errorf("fairserved: %w", err)
	}
	if rssErr != nil {
		return rssErr
	}
	if wrong > 0 {
		r.mismatch("%d responses disagreed with the oracle", wrong)
	}
	r.note("saturated %.0f rows/s, uncorrected %.0f; one client %.4fms, uncorrected %.4fms", median(rates), median(rawRates), median(lats), median(rawLats))
	r.set("setup_s", setup)
	r.set("latency_ms", median(lats))
	r.set("rows_per_s", median(rates))
	r.set("peak_rss_mb", rss)
	r.set("sse", env.sse)
	r.set("mean_ae", env.ae)
	return nil
}

// loopResult is one closed-loop segment: the round trip of each
// accepted request in ms, and counts.
type loopResult struct {
	rtts                      []float64
	rows, sent, failed, wrong int
}

// closedLoop sends the ring's requests for dur over conns keep-alive
// connections, each sending its next request as soon as the reply to
// its last has been read.
func (e *serveEnv) closedLoop(conns int, dur time.Duration) *loopResult {
	res := &loopResult{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				b := e.ring[int(next.Add(1)-1)%len(e.ring)]
				var oc outcome
				e.send(b, &oc, t0)
				mu.Lock()
				res.sent++
				switch {
				case oc.wrong:
					res.wrong++
					res.failed++
				case oc.status != http.StatusOK:
					res.failed++
				default:
					res.rtts = append(res.rtts, ms(oc.done-oc.sent))
					res.rows += len(b.clusters)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// serveTraced runs one traced set-up, then the same fixed-rate schedule
// twice, untraced and traced: the untraced phase gives the server-side
// stage breakdown, the traced one the client-side spans and the
// tracing overhead. The SLO knee search, in-process replay and kernel
// timings follow.
func serveTraced(o *opts, r *report, spec serveSpec) error {
	rec := NewRecorder()
	root := rec.Begin("setup", 0)
	env, fit, err := serveSetup(o, spec, rec, root)
	rec.End(root)
	if err != nil {
		return err
	}
	defer env.close()
	if err := env.noteInputs(r); err != nil {
		return err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go env.scrapeLoop(stop, done)
	defer func() { close(stop); <-done }()

	warm, fixed, probeLen := o.seconds/25, o.seconds/5, o.seconds/25
	sched := PoissonSchedule(phaseSeed(o.seed, 1), spec.fixedRate, fixed)
	env.run(PoissonSchedule(phaseSeed(o.seed, 0), spec.fixedRate, warm), warm, warm+2*time.Second, nil)
	pid := env.srv.cmd.Process.Pid
	m0, err := env.scrape()
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	plain := env.run(sched, fixed, fixed+2*time.Second, nil)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	m1, err := env.scrape()
	if err != nil {
		return err
	}
	firstSpan := len(rec.Spans())
	traced := env.run(sched, fixed, fixed+2*time.Second, rec)
	ps, ts := plain.summarize(), traced.summarize()
	r.attempted += ps.total + ts.total
	r.failed += ps.failed + ts.failed
	wrong := ps.wrong + ts.wrong

	// The knee: the highest offered rate whose p99 from due time stays
	// within the SLO with at most 1% failed and no growing backlog.
	var bestRate, bestRows float64
	probeN := 1
	knee, probes := KneeSearch(spec.fixedRate, maxProbes, func(rate float64) bool {
		probeN++
		s := env.run(PoissonSchedule(phaseSeed(o.seed, probeN), rate, probeLen), probeLen, probeLen+time.Second/4, nil).summarize()
		wrong += s.wrong
		pass := s.passes(spec.slo)
		r.note("probe rate=%.1f pass=%v p99=%.3fms failed=%d/%d last_second=%d/%d", rate, pass, s.lat.Quantile(0.99)/1e6, s.failed, s.total, s.lastDone, s.lastDue)
		if pass && rate > bestRate {
			bestRate, bestRows = rate, float64(s.okRows)/probeLen.Seconds()
		}
		return pass
	})
	r.note("knee=%.1f req/s, %.0f rows/s after %d probes", knee, bestRows, len(probes))
	r.set("load.knee_rows_per_s", bestRows)
	if wrong > 0 {
		r.mismatch("%d responses disagreed with the oracle", wrong)
	}

	delta := func(family, label string) float64 {
		return promSum(m1, family, label) - promSum(m0, family, label)
	}
	stage := func(name string) float64 {
		l := `stage="` + name + `"`
		n := delta("fairserved_request_stage_seconds_count", l)
		if n == 0 {
			return 0
		}
		return delta("fairserved_request_stage_seconds_sum", l) / n * 1e3
	}
	perOK := func(v float64) float64 { return v / float64(max(ps.ok, 1)) }
	total := stage("total")
	r.set("serve.admission_ms", stage("admission"))
	r.set("serve.queue_ms", stage("queue"))
	r.set("serve.score_ms", stage("score"))
	r.set("serve.total_ms", total)
	r.set("serve.shed", delta("fairserved_shed_total", ""))
	r.set("serve.deadline", delta("fairserved_deadline_total", ""))
	r.set("http.overhead_ms", perOK(ms(ps.roundTrip))-total)
	r.set("http.req_kb", float64(ps.reqBytes)/float64(max(ps.sent, 1))/1024)
	r.set("http.resp_kb", float64(ps.respBytes)/float64(max(ps.sent, 1))/1024)
	r.set("http.conn_wait_ms", ms(ps.connWait)/float64(ps.total))
	cpu := float64((cpu1 - cpu0).Microseconds())
	r.set("server.cpu_us_per_row", cpu/float64(max(ps.okRows, 1)))
	r.set("server.cpu_us_per_req", perOK(cpu))
	r.set("load.lag_p99_ms", ps.lag.Quantile(0.99)/1e6)
	r.set("load.p50_ms", ps.lat.Quantile(0.5)/1e6)
	r.set("load.p99_ms", ps.lat.Quantile(0.99)/1e6)
	r.set("load.p999_ms", ps.lat.Quantile(0.999)/1e6)
	r.set("load.client_cpu_share", plain.clientCPU.Seconds()/(plain.wall.Seconds()*float64(runtime.NumCPU())))
	r.set("load.sent", float64(ps.sent))
	r.set("load.ok", float64(ps.ok))
	r.set("trace.overhead", ts.lat.Quantile(0.5)/ps.lat.Quantile(0.5))
	spans := rec.Spans()
	r.set("trace.coverage", Coverage(spans[firstSpan:]))
	setEngineMetrics(r, []fitStats{*fit})
	if err := codecMetrics(r, env.model); err != nil {
		return err
	}
	if err := replayMetrics(r, env, o.seconds/20); err != nil {
		return err
	}
	var rows [][]float64
	for _, b := range env.ring {
		rows = append(rows, b.scaled...)
	}
	statsMetrics(r, rows, env.model.Centroids, o.seconds/40)

	env.scrapeMu.Lock()
	r.set("telemetry.scrape_ms", median(env.scrapeTimes))
	r.set("telemetry.scrape_kb", float64(env.scrapeBytes)/float64(len(env.scrapeTimes))/1024)
	env.scrapeMu.Unlock()
	r.note("fixed rate=%.1f untraced p50=%.4fms traced p50=%.4fms", spec.fixedRate, ps.lat.Quantile(0.5)/1e6, ts.lat.Quantile(0.5)/1e6)
	printLayers(r, spans)
	return rec.WriteJSON(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// replayMetrics replays the workload's batches in-process through
// Assigner.AssignBatchCtx, unlabelled and then with sensitive values,
// for about budget each; the difference between the two per-row costs
// is drift observation.
func replayMetrics(r *report, env *serveEnv, budget time.Duration) error {
	replay := func(labelled bool) (perReq, perRow float64, err error) {
		a, err := fairclust.NewAssigner(env.model, fairclust.AssignerOptions{Workers: loadConns})
		if err != nil {
			return 0, 0, err
		}
		defer a.Close()
		var spent time.Duration
		reqs, rows := 0, 0
		for i := 0; i == 0 || spent < budget; i++ {
			b := env.ring[i%len(env.ring)]
			var sens []map[string]string
			if labelled {
				sens = b.sens
			}
			t0 := time.Now()
			got, _, err := a.AssignBatchCtx(context.Background(), b.scaled, sens)
			spent += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			for j, c := range got {
				if c != b.clusters[j] {
					r.mismatch("replayed row %d of batch %d: cluster %d, oracle %d", j, i, c, b.clusters[j])
					break
				}
			}
			reqs++
			rows += len(got)
		}
		us := float64(spent) / float64(time.Microsecond)
		return us / float64(reqs), us / float64(rows), nil
	}
	perReq, perRow, err := replay(false)
	if err != nil {
		return err
	}
	_, labelled, err := replay(true)
	if err != nil {
		return err
	}
	r.set("serve.assign_us_per_req", perReq)
	r.set("serve.assign_us_per_row", perRow)
	r.set("serve.assign_labelled_us_per_row", labelled)
	return nil
}
