package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/sampling"
	"depburst/internal/sim"
)

// runTraced runs one untraced round, then one round under the CPU profiler,
// then the layer probes, and reports every per-layer metric with the
// tracing overhead: the traced round's host time over the untraced one's.
func runTraced(name string, o runOpts) (*result, error) {
	plan, err := buildPlan(o.seed)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, p := range plan {
		bodies = append(bodies, p.body)
	}
	res := &result{}
	v := &layerVals{}
	var in probeInput
	switch name {
	case "serve-mix":
		in, err = traceServe(o, plan, res, v)
	default:
		c := simColdConfig()
		if name == "sim-sampled" {
			c = simSampledConfig()
		}
		in, err = traceSim(o, c, plan, res, v)
	}
	if err != nil {
		return nil, err
	}
	in.bodies, in.seed, in.dir = bodies, o.seed, o.dir
	if err := runProbes(in, v); err != nil {
		return nil, err
	}
	emitLayers(res, v)
	return res, nil
}

// cpuProfile is a running CPU profile written to a scratch file.
type cpuProfile struct {
	f *os.File
}

// startProfile starts the CPU profiler for the traced round. A package the
// round does not enter reads 0.
func startProfile(dir string) (*cpuProfile, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and returns the CPU seconds per profBuckets entry.
func (p *cpuProfile) stop() ([]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(p.f.Name())
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(raw)
	if err != nil {
		return nil, err
	}
	return attributeProfile(samples), nil
}

// traceSim measures sim-cold or sim-sampled: an untraced round and a
// profiled one, both checked, with the per-layer figures of the profiled
// round.
func traceSim(o runOpts, c simConfig, plan []planReq, res *result, v *layerVals) (probeInput, error) {
	specs := c.specs()
	var ref *reference
	if c.sampled {
		var err error
		if ref, err = loadReference(specs); err != nil {
			return probeInput{}, err
		}
	}
	ops := c.simOps(specs, o.seed)
	var rounds []*simRound
	var prof *cpuProfile
	for i := 0; i < 2; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("round-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return probeInput{}, err
		}
		var rd *simRound
		run := func() error {
			var err error
			rd, err = simRoundRun(c, specs, ops, dir)
			return err
		}
		if i == 1 {
			var err error
			if prof, err = startProfile(o.dir); err != nil {
				return probeInput{}, err
			}
		}
		if err := run(); err != nil {
			return probeInput{}, err
		}
		if prof != nil {
			var err error
			if v.prof, err = prof.stop(); err != nil {
				return probeInput{}, err
			}
		}
		checkSimRound(res, c, specs, rd, ref)
		res.attempted += len(ops) + len(rd.hitLat)
		rounds = append(rounds, rd)
	}
	base, rd := rounds[0], rounds[1]
	base.runner = nil
	v.untracedWall = base.use.wallS
	v.overheadPct = 100 * (rd.use.wallS/base.use.wallS - 1)
	v.gcCycles, v.gcPauseMS = float64(rd.use.gcs), rd.use.pauseMS

	var truthLat, managedLat []float64
	for i, op := range ops {
		if op.threshold > 0 {
			managedLat = append(managedLat, rd.missLat[i])
		} else {
			truthLat = append(truthLat, rd.missLat[i])
		}
	}
	v.truthSimMS = 1e3 * median(truthLat)
	v.managedRunMS = 1e3 * median(managedLat)
	v.simulations = float64(rd.sims)
	v.truthHitUS = median(timeEach(20*len(specs)*len(experiments.EvalFreqs), func(i int) {
		spec := specs[i%len(specs)]
		rd.runner.Truth(spec, experiments.EvalFreqs[(i/len(specs))%len(experiments.EvalFreqs)])
	}))
	for s := range specs {
		for _, r := range rd.truth[s] {
			v.counts.add(r)
		}
		for _, r := range rd.managed[s] {
			if r != nil {
				v.counts.add(r)
			}
		}
	}
	in := probeInput{
		specs:        specs,
		sampled:      c.sampled,
		managedSpec:  specs[0],
		obs:          baseObservations(rd),
		result:       rd.truth[0][0],
		resultSpec:   specs[0],
		store:        rd.store,
		sampledSpecs: specs,
	}
	// The round's cache is only written; the serve probe's counts stand
	// for simcache reads.
	srv, err := probeServe(o.dir, plan, v)
	if err != nil {
		return probeInput{}, err
	}
	if c.sampled {
		// surrogate.Scan keeps full-detail truths only, and this round
		// has none: the surrogate probes use the serve probe's corpus.
		in.store, in.model = srv.store, srv.model
	}
	return in, nil
}

// traceServe measures serve-mix: an untraced loopback round (which also
// gives the per-tier loopback latencies), a profiled loopback round, and
// an in-process round timing Server.ServeHTTP per request class. The
// oracle then judges all three.
func traceServe(o runOpts, plan []planReq, res *result, v *layerVals) (probeInput, error) {
	resp := &responses{bodies: make([][]string, len(plan))}
	base, _, err := serveRoundRun(plan, filepath.Join(o.dir, "round-0"), resp, true)
	if err != nil {
		return probeInput{}, err
	}
	prof, err := startProfile(o.dir)
	if err != nil {
		return probeInput{}, err
	}
	rd, _, err := serveRoundRun(plan, filepath.Join(o.dir, "round-1"), resp, true)
	if err != nil {
		return probeInput{}, err
	}
	if v.prof, err = prof.stop(); err != nil {
		return probeInput{}, err
	}
	inproc, state, err := serveRoundRun(plan, filepath.Join(o.dir, "round-2"), resp, false)
	if err != nil {
		return probeInput{}, err
	}

	orc, err := newOracle(plan)
	if err != nil {
		return probeInput{}, err
	}
	verdicts := orc.judge(plan, resp)
	for _, r := range []*serveRound{base, rd, inproc} {
		checkServeRound(res, plan, r, verdicts, orc)
	}

	v.untracedWall = base.use.wallS
	v.overheadPct = 100 * (rd.use.wallS/base.use.wallS - 1)
	v.gcCycles, v.gcPauseMS = float64(rd.use.gcs), rd.use.pauseMS
	v.simulations = float64(rd.sims)
	v.scanMS, v.trainMS = 1e3*rd.scanS, 1e3*rd.trainS
	serveLayers(plan, base, inproc, v)

	// Truth runs of every request that simulates, on fresh Runners: their
	// host time, a memoised lookup, and the model counts.
	var simLat, hitLat []float64
	var sampledSpecs []dacapo.Spec
	var first *sim.Result
	var firstSpec dacapo.Spec
	for _, p := range plan {
		if !p.class.simulates() {
			continue
		}
		r := experiments.NewRunnerWorkers(1)
		if p.req.Sampling != nil {
			r.SetSampling(sampling.DefaultPolicy())
			sampledSpecs = append(sampledSpecs, p.spec)
		}
		f := experiments.FMin
		start := now()
		tr := r.Truth(p.spec, f)
		simLat = append(simLat, 1e3*secondsSince(start))
		hitLat = append(hitLat, timeEach(50, func(int) { r.Truth(p.spec, f) })...)
		v.counts.add(tr)
		if first == nil && p.req.Sampling == nil {
			first, firstSpec = tr, p.spec
		}
	}
	v.truthSimMS, v.truthHitUS = median(simLat), median(hitLat)

	corpus := scaledSuite(serveScale)
	in := probeInput{
		specs:        corpus,
		sampledSpecs: sampledSpecs,
		managedSpec:  corpus[0],
		obs:          corpusObservations(orc, corpus),
		result:       first,
		resultSpec:   firstSpec,
		store:        state.store,
		model:        state.model,
	}
	return in, nil
}

// corpusObservations returns the oracle's 1 GHz observation of each
// corpus spec.
func corpusObservations(orc *oracle, corpus []dacapo.Spec) []*core.Observation {
	var out []*core.Observation
	for _, s := range corpus {
		if t, ok := orc.full[specKey(s)][experiments.FMin]; ok {
			out = append(out, t.obs)
		}
	}
	return out
}

// serveLayers fills the serving layers' figures from a loopback round and
// an in-process round of the same plan: loopback latency per tier, handler
// time per tier, and the server's own counts from the loopback round.
func serveLayers(plan []planReq, loop, inproc *serveRound, v *layerVals) {
	v.tier0Answers = float64(loop.tier0)
	v.coalesced, v.rejected = float64(loop.coalesced), float64(loop.rejected)
	v.cacheHits, v.cacheMisses = float64(loop.cache.Hits), float64(loop.cache.Misses)
	var t0, rp, t0h, rph, missh []float64
	for i, p := range plan {
		switch {
		case p.class == classTier0:
			t0 = append(t0, 1e3*loop.lat[i])
			t0h = append(t0h, 1e6*inproc.lat[i])
		case p.class.replays():
			rp = append(rp, 1e3*loop.lat[i])
			rph = append(rph, 1e6*inproc.lat[i])
		case p.class.simulates():
			missh = append(missh, 1e3*inproc.lat[i])
		}
	}
	v.tier0P50, v.tier0P99 = quantile(t0, 0.5), quantile(t0, 0.99)
	v.replayP50, v.replayP99 = quantile(rp, 0.5), quantile(rp, 0.99)
	v.hTier0US, v.hReplayUS, v.hMissMS = median(t0h), median(rph), median(missh)
}

// probeServe gives the sim workloads' traced runs the serving layers'
// figures: the serve-mix plan less its aliased requests, played once over
// loopback and once in process on fresh servers. Its requests are probes,
// not the workload's operations; each must still be answered with 200.
// It returns the in-process server's state.
func probeServe(dir string, plan []planReq, v *layerVals) (*serveState, error) {
	var kept []planReq
	for _, p := range plan {
		if p.class != classAlias {
			kept = append(kept, p)
		}
	}
	resp := &responses{bodies: make([][]string, len(kept))}
	loop, _, err := serveRoundRun(kept, filepath.Join(dir, "serve-probe-0"), resp, true)
	if err != nil {
		return nil, err
	}
	inproc, state, err := serveRoundRun(kept, filepath.Join(dir, "serve-probe-1"), resp, false)
	if err != nil {
		return nil, err
	}
	for _, rd := range []*serveRound{loop, inproc} {
		for i, code := range rd.status {
			if code != http.StatusOK {
				return nil, fmt.Errorf("serve probe: request %d answered %d", i, code)
			}
		}
	}
	v.scanMS, v.trainMS = 1e3*loop.scanS, 1e3*loop.trainS
	serveLayers(kept, loop, inproc, v)
	return state, nil
}
