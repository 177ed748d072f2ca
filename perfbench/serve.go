package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/server"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
)

// serveRound is what one serve-mix round produced.
type serveRound struct {
	setupS     float64
	scanS      float64
	trainS     float64
	use        spent
	retainedMB float64
	lat        []float64 // seconds per request, indexed like the plan
	status     []int
	variant    []int // index into the request's distinct response bodies
	coalesced  int
	rejected   int
	tier0      int
	sims       int64
	cache      simcache.Stats
}

// serveState is one round's server: the cache it was set up on, the
// trained surrogate, the Runner and the listening server.
type serveState struct {
	store  *simcache.Store
	model  *surrogate.Model
	runner *experiments.Runner
	srv    *server.Server
	reg    *metrics.ServerRegistry
	base   string
	cancel context.CancelFunc
	errc   chan error
	scanS  float64
	trainS float64
}

// setupServe goes from an empty cache directory to a ready server:
// simulate the training corpus into the cache, scan and train the
// surrogate, then listen on loopback. With listen false the server is
// only built, for in-process handler timing.
func setupServe(dir string, listen bool) (*serveState, error) {
	st, err := openEmptyStore(dir)
	if err != nil {
		return nil, err
	}
	corpus := scaledSuite(serveScale)
	builder := experiments.NewRunnerWorkers(clients)
	builder.SetDiskCache(st)
	builder.Prewarm(corpus, experiments.EvalFreqs...)

	s := &serveState{store: st}
	start := now()
	samples, err := surrogate.Scan(st)
	if err != nil {
		return nil, err
	}
	s.scanS = secondsSince(start)
	if len(samples) != len(corpus)*len(experiments.EvalFreqs) {
		return nil, fmt.Errorf("corpus scan found %d samples, want %d", len(samples), len(corpus)*len(experiments.EvalFreqs))
	}
	start = now()
	s.model = surrogate.Train(samples)
	s.trainS = secondsSince(start)

	s.runner = experiments.NewRunnerWorkers(clients)
	s.runner.SetDiskCache(st)
	s.runner.SetSuite(corpus)
	s.reg = metrics.NewServerRegistry()
	s.srv, err = server.New(server.Config{
		Runner:    s.runner,
		Workers:   clients,
		Timeout:   2 * time.Minute,
		Metrics:   s.reg,
		Surrogate: s.model,
	})
	if err != nil {
		return nil, err
	}
	if !listen {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.errc = make(chan error, 1)
	srv := s.srv
	go func() { s.errc <- srv.Serve(ctx, ln) }()
	resp, err := http.Get(s.base + "/readyz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("readyz: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *serveState) stop() error {
	if s.cancel == nil {
		return nil
	}
	s.cancel()
	s.cancel = nil
	return <-s.errc
}

// responses keeps each planned request's distinct response bodies across
// rounds; rounds refer to them by index.
type responses struct {
	mu     sync.Mutex
	bodies [][]string // [plan index][variant]
}

func (r *responses) record(i int, body []byte) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for v, b := range r.bodies[i] {
		if b == string(body) {
			return v
		}
	}
	r.bodies[i] = append(r.bodies[i], string(body))
	return len(r.bodies[i]) - 1
}

// httpClient keeps one connection per client alive across requests.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 3 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		},
	}
}

// send makes one request and returns its status and body.
func send(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// serveRoundRun sets up a fresh server, plays the plan phase by phase from
// two closed-loop clients, and shuts the server down. The clients call
// over loopback HTTP, or with loopback false through Server.ServeHTTP in
// process. It returns the round and the server's state.
func serveRoundRun(plan []planReq, dir string, resp *responses, loopback bool) (*serveRound, *serveState, error) {
	rd := &serveRound{
		lat:     make([]float64, len(plan)),
		status:  make([]int, len(plan)),
		variant: make([]int, len(plan)),
	}
	start := now()
	s, err := setupServe(dir, loopback)
	if err != nil {
		return nil, nil, err
	}
	rd.setupS = secondsSince(start)
	rd.scanS, rd.trainS = s.scanS, s.trainS
	defer s.stop()

	call := func(method, path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		s.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
	if loopback {
		client := httpClient()
		defer client.CloseIdleConnections()
		call = func(method, path string, body []byte) (int, []byte, error) {
			return send(client, method, s.base+path, body)
		}
	}
	var mu sync.Mutex
	var firstErr error

	before := snapshot()
	for _, idx := range phases(plan) {
		lat := closedLoop(len(idx), func(k int) {
			i := idx[k]
			code, body, err := call(http.MethodPost, "/v1/predict", plan[i].body)
			v := resp.record(i, body)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("request %d: %w", i, err)
			}
			rd.status[i], rd.variant[i] = code, v
		})
		for k, i := range idx {
			rd.lat[i] = lat[k]
		}
	}
	rd.use = before.until(snapshot())
	rd.retainedMB = retainedHeapMB()
	runtime.KeepAlive(s)
	if firstErr != nil {
		return nil, nil, firstErr
	}

	code, body, err := call(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("/v1/metrics: status %d", code)
	}
	var doc struct {
		Coalesced int `json:"coalesced"`
		Rejected  int `json:"rejected"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	rd.coalesced, rd.rejected = doc.Coalesced, doc.Rejected
	rd.tier0 = int(s.reg.TierCount(server.TierSurrogate))
	rd.sims = s.runner.Simulations()
	rd.cache = s.store.Stats()
	return rd, s, s.stop()
}

// runServe runs serve-mix: whole rounds until the host-time budget is
// spent, then the oracle over every distinct request, then the metrics.
func runServe(o runOpts) (*result, error) {
	plan, err := buildPlan(o.seed)
	if err != nil {
		return nil, err
	}
	resp := &responses{bodies: make([][]string, len(plan))}
	var rounds []*serveRound
	start := now()
	for len(rounds) == 0 || secondsSince(start) < o.seconds {
		dir := filepath.Join(o.dir, fmt.Sprintf("round-%d", len(rounds)))
		rd, _, err := serveRoundRun(plan, dir, resp, true)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
		logRound(len(rounds), rd.setupS, rd.use)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	orc, err := newOracle(plan)
	if err != nil {
		return nil, err
	}
	res := &result{}
	verdicts := orc.judge(plan, resp)
	for _, rd := range rounds {
		checkServeRound(res, plan, rd, verdicts, orc)
	}
	serveMetrics(res, plan, rounds, orc)
	return res, nil
}

// checkServeRound counts the round's operations and its failed ones. A
// request fails when its status is not 200 or its body does not match the
// oracle; only the memo-aliasing requests are expected to, so any other
// failure also makes the run incorrect.
func checkServeRound(res *result, plan []planReq, rd *serveRound, verdicts [][]error, orc *oracle) {
	res.attempted += len(plan)
	aliasOK := int64(0)
	for i, p := range plan {
		var err error
		if rd.status[i] != http.StatusOK {
			err = fmt.Errorf("status %d", rd.status[i])
		} else {
			err = verdicts[i][rd.variant[i]]
		}
		if err == nil {
			if p.class == classAlias {
				aliasOK++
			}
			continue
		}
		res.failed++
		if p.class != classAlias {
			res.problem(fmt.Sprintf("request %d (%s): %v", i, p.spec.Name, err))
		}
	}
	// An aliased request answered correctly had to simulate its content.
	if want := orc.expectedSims(plan) + aliasOK; rd.sims != want {
		res.problem(fmt.Sprintf("server ran %d simulations, the plan needs %d", rd.sims, want))
	}
	if rd.rejected != 0 {
		res.problem(fmt.Sprintf("server rejected %d requests", rd.rejected))
	}
}

// serveMetrics reports the end-to-end metrics over the rounds. Tier-0
// answers are reported per layer (serve.tier0_*); the aliased requests,
// which fail, are in no latency class.
func serveMetrics(res *result, plan []planReq, rounds []*serveRound, orc *oracle) {
	e := &endToEnd{maePct: orc.actualMAE(plan)}
	instrs := orc.simulatedInstrs(plan)
	for _, rd := range rounds {
		var miss, replay []float64
		for i, p := range plan {
			switch {
			case p.class.replays():
				replay = append(replay, rd.lat[i])
			case p.class.simulates():
				miss = append(miss, rd.lat[i])
			}
		}
		e.addRound(rd.setupS, rd.use, rd.retainedMB, instrs, len(plan), miss, replay)
	}
	e.emit(res)
}

// specKey is a spec's content key: equal only for equal contents.
func specKey(s dacapo.Spec) string {
	k, err := simcache.Key(s)
	if err != nil {
		panic(err)
	}
	return k
}
