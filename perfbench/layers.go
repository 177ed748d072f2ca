package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"

	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/event"
	"depburst/internal/experiments"
	"depburst/internal/kernel"
	"depburst/internal/mem"
	"depburst/internal/rng"
	"depburst/internal/sampling"
	"depburst/internal/server"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// The probes below time calls into each module's public functions from
// outside, with inputs shaped like the workload's. Nothing inside the
// program is instrumented.

// layerVals holds every per-layer metric.
type layerVals struct {
	truthSimMS, truthHitUS, managedRunMS, simulations float64

	simRunMS                   []float64 // per stock bench, dacapo.Suite() order
	simMinstrPerS, simQuanta   float64
	samplingRunMS, fastFrac    float64
	errorBoundPct              float64
	eventNS                    float64
	cpuRunNSPerKI, cpuFastNSKI float64
	memHitNS, memMissNS, dram  float64
	futexUS                    float64

	counts modelCounts
	prof   []float64 // CPU seconds per profBuckets entry

	predictUS                 [3]float64 // dep+burst, mcrit, coop
	decideUS                  float64
	putMS, getMS, keyUS       float64
	entryKB                   float64
	cacheHits, cacheMisses    float64
	scanMS, trainMS           float64
	surPredictUS, observeUS   float64
	tier0Answers              float64
	decodeUS                  float64
	hTier0US, hReplayUS       float64
	hMissMS                   float64
	coalesced, rejected       float64
	tier0P50, tier0P99        float64
	replayP50, replayP99      float64
	gcCycles, gcPauseMS       float64
	overheadPct, untracedWall float64
}

// modelCounts are deterministic counts summed over simulation results.
type modelCounts struct {
	instrs, l1, l2, l3, dramLoads, dramReads, dramWrites float64
	epochs, gcs, transitions                             float64
}

func (c *modelCounts) add(res *sim.Result) {
	t := res.TotalCounters()
	c.instrs += float64(t.Instrs)
	c.l1 += float64(t.LoadsL1)
	c.l2 += float64(t.LoadsL2)
	c.l3 += float64(t.LoadsL3)
	c.dramLoads += float64(t.LoadsDRAM)
	c.dramReads += float64(res.DRAM.Reads)
	c.dramWrites += float64(res.DRAM.Writes)
	c.epochs += float64(len(res.Epochs))
	c.gcs += float64(res.GC.MinorGCs + res.GC.MajorGCs)
	c.transitions += float64(res.Transitions)
}

// emitLayers appends every per-layer metric, in one fixed order.
func emitLayers(res *result, v *layerVals) {
	res.add("experiments.truth_sim_ms", "ms", v.truthSimMS)
	res.add("experiments.truth_hit_us", "us", v.truthHitUS)
	res.add("experiments.managed_run_ms", "ms", v.managedRunMS)
	res.add("experiments.simulations", "count", v.simulations)
	for i, s := range dacapo.Suite() {
		ms := 0.0
		if i < len(v.simRunMS) {
			ms = v.simRunMS[i]
		}
		res.add("sim.run_ms."+s.Name, "ms", ms)
	}
	res.add("sim.minstr_per_s", "Minstr/s", v.simMinstrPerS)
	res.add("sim.quanta", "count", v.simQuanta)
	res.add("sampling.run_ms", "ms", v.samplingRunMS)
	res.add("sampling.fast_frac", "frac", v.fastFrac)
	res.add("sampling.error_bound_pct", "%", v.errorBoundPct)
	res.add("event.schedule_step_ns", "ns", v.eventNS)
	res.add("cpu.run_ns_per_kinstr", "ns", v.cpuRunNSPerKI)
	res.add("cpu.run_fast_ns_per_kinstr", "ns", v.cpuFastNSKI)
	res.add("mem.cache_access_hit_ns", "ns", v.memHitNS)
	res.add("mem.cache_access_miss_ns", "ns", v.memMissNS)
	res.add("mem.dram_access_ns", "ns", v.dram)
	res.add("kernel.futex_handoff_us", "us", v.futexUS)
	c := v.counts
	res.add("cpu.instrs", "count", c.instrs)
	res.add("mem.l1_loads", "count", c.l1)
	res.add("mem.l2_loads", "count", c.l2)
	res.add("mem.l3_loads", "count", c.l3)
	res.add("mem.dram_loads", "count", c.dramLoads)
	res.add("mem.dram_reads", "count", c.dramReads)
	res.add("mem.dram_writes", "count", c.dramWrites)
	res.add("kernel.epochs", "count", c.epochs)
	res.add("jvm.gc_count", "count", c.gcs)
	res.add("energy.transitions", "count", c.transitions)
	for i, b := range profBuckets {
		s := 0.0
		if i < len(v.prof) {
			s = v.prof[i]
		}
		res.add("prof."+b+"_cpu_s", "s", s)
	}
	res.add("core.predict_us.dep_burst", "us", v.predictUS[0])
	res.add("core.predict_us.mcrit", "us", v.predictUS[1])
	res.add("core.predict_us.coop", "us", v.predictUS[2])
	res.add("energy.decide_us", "us", v.decideUS)
	res.add("simcache.put_ms", "ms", v.putMS)
	res.add("simcache.get_ms", "ms", v.getMS)
	res.add("simcache.key_us", "us", v.keyUS)
	res.add("simcache.entry_kb", "KB", v.entryKB)
	res.add("simcache.hits", "count", v.cacheHits)
	res.add("simcache.misses", "count", v.cacheMisses)
	res.add("surrogate.scan_ms", "ms", v.scanMS)
	res.add("surrogate.train_ms", "ms", v.trainMS)
	res.add("surrogate.predict_us", "us", v.surPredictUS)
	res.add("surrogate.observe_us", "us", v.observeUS)
	res.add("surrogate.tier0_answers", "count", v.tier0Answers)
	res.add("server.decode_us", "us", v.decodeUS)
	res.add("server.handler_us.tier0", "us", v.hTier0US)
	res.add("server.handler_us.replay", "us", v.hReplayUS)
	res.add("server.handler_ms.miss", "ms", v.hMissMS)
	res.add("server.coalesced", "count", v.coalesced)
	res.add("server.rejected", "count", v.rejected)
	res.add("serve.tier0_p50_ms", "ms", v.tier0P50)
	res.add("serve.tier0_p99_ms", "ms", v.tier0P99)
	res.add("serve.replay_p50_ms", "ms", v.replayP50)
	res.add("serve.replay_p99_ms", "ms", v.replayP99)
	res.add("runtime.gc_cycles", "count", v.gcCycles)
	res.add("runtime.gc_pause_ms", "ms", v.gcPauseMS)
	res.add("trace.untraced_wall_s", "s", v.untracedWall)
	res.add("trace.overhead_pct", "%", v.overheadPct)
}

// probeInput shapes the common probes after one workload.
type probeInput struct {
	specs        []dacapo.Spec // the workload's suite: sim.run_ms per bench
	sampled      bool          // whether the suite runs sampled
	sampledSpecs []dacapo.Spec // specs the workload simulates sampled
	managedSpec  dacapo.Spec   // spec for the energy governor probe
	obs          []*core.Observation
	result       *sim.Result // one simulated result, for the simcache probe
	resultSpec   dacapo.Spec
	store        *simcache.Store // a cache of truths, for the surrogate probes
	model        *surrogate.Model
	bodies       [][]byte
	seed         uint64
	dir          string
}

// machineConfig is the Runner's machine for spec at f.
func machineConfig(spec dacapo.Spec, f units.Freq, sampled bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Freq = f
	spec.Configure(&cfg)
	if sampled {
		cfg.Sampling = sampling.DefaultPolicy()
	}
	return cfg
}

// runProbes fills the probe-measured fields of v.
func runProbes(in probeInput, v *layerVals) error {
	var runS, instrs float64
	for _, spec := range in.specs {
		start := now()
		res, err := sim.New(machineConfig(spec, experiments.FMin, in.sampled)).Run(dacapo.New(spec))
		if err != nil {
			return err
		}
		d := secondsSince(start)
		v.simRunMS = append(v.simRunMS, 1e3*d)
		runS += d
		instrs += float64(res.TotalCounters().Instrs)
		v.simQuanta += float64(len(res.Samples))
	}
	v.simMinstrPerS = instrs / 1e6 / runS

	var sRun, sFast []float64
	for _, spec := range in.sampledSpecs {
		start := now()
		res, err := sim.New(machineConfig(spec, experiments.FMin, true)).Run(dacapo.New(spec))
		if err != nil {
			return err
		}
		sRun = append(sRun, 1e3*secondsSince(start))
		if res.Sampling != nil {
			sFast = append(sFast, res.Sampling.FastFrac())
			if b := 100 * res.Sampling.ErrorBound; b > v.errorBoundPct {
				v.errorBoundPct = b
			}
		}
	}
	v.samplingRunMS, v.fastFrac = mean(sRun), mean(sFast)

	if v.managedRunMS == 0 { // the workload ran no managed run of its own
		r := experiments.NewRunnerWorkers(1)
		if in.sampled {
			r.SetSampling(sampling.DefaultPolicy())
		}
		start := now()
		r.ManagedRun(in.managedSpec, managedThresholds[0])
		v.managedRunMS = 1e3 * secondsSince(start)
	}

	shape := in.specs[0]
	v.eventNS = probeEvent()
	v.cpuRunNSPerKI, v.cpuFastNSKI = probeCPU(shape, in.seed)
	v.memHitNS, v.memMissNS, v.dram = probeMem(shape, in.seed)
	var err error
	if v.futexUS, err = probeFutex(); err != nil {
		return err
	}
	v.predictUS = probePredict(in.obs)
	if v.decideUS, err = probeDecide(in.managedSpec, in.sampled); err != nil {
		return err
	}
	if v.putMS, v.getMS, v.keyUS, v.entryKB, err = probeSimcache(filepath.Join(in.dir, "probe-cache"), in.result, in.resultSpec); err != nil {
		return err
	}
	samples, err := surrogate.Scan(in.store)
	if err != nil {
		return err
	}
	model := in.model
	if model == nil {
		model = surrogate.Train(samples)
	}
	v.surPredictUS, v.observeUS = probeSurrogate(model, samples)
	v.decodeUS = probeDecode(in.bodies)
	return nil
}

// timeEach calls fn n times and returns each call's host microseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := now()
		fn(i)
		out[i] = 1e6 * secondsSince(start)
	}
	return out
}

// probeEvent times one Schedule+Step with as many events pending as a
// 4-core machine keeps (a timer per thread plus the quantum tick).
func probeEvent() float64 {
	e := event.New()
	fn := event.Func(func(units.Time) {})
	const depth, n = 8, 2_000_000
	for i := 0; i < depth; i++ {
		e.Schedule(units.Time(i), fn)
	}
	start := now()
	for i := 0; i < n; i++ {
		e.Schedule(e.Now()+depth, fn)
		e.Step()
	}
	return 1e9 * secondsSince(start) / n
}

// probeCPU times Core.Run on blocks with the spec's IPC, L1-miss mix and
// locality, and Core.RunFast at the rates such blocks produce.
func probeCPU(spec dacapo.Spec, seed uint64) (runNS, fastNS float64) {
	const blockInstrs, nblocks, passes = 1000, 512, 40
	r := rng.New(seed)
	blocks := make([]*cpu.Block, nblocks)
	nl, ns := int(spec.LoadsPerKI), int(spec.StoresPerKI)
	for i := range blocks {
		b := &cpu.Block{Instrs: blockInstrs, IPC: spec.IPC}
		for j := 0; j < nl+ns; j++ {
			b.Events = append(b.Events, cpu.MemEvent{
				At:      int64(j * blockInstrs / (nl + ns)),
				Addr:    shapedAddr(r, spec),
				Store:   j >= nl,
				DepPrev: j < nl && r.Bool(spec.DepFrac),
			})
		}
		blocks[i] = b
	}
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(1))
	c := cpu.NewCore(0, cpu.DefaultConfig(), units.NewClock(experiments.FMin), hier)
	var ctr cpu.Counters
	t := units.Time(0)
	for _, b := range blocks {
		t = c.Run(t, b, &ctr) // warm the hierarchy
	}
	ctr = cpu.Counters{}
	start := now()
	for p := 0; p < passes; p++ {
		for _, b := range blocks {
			t = c.Run(t, b, &ctr)
		}
	}
	kinstr := float64(passes * nblocks * blockInstrs / 1000)
	runNS = 1e9 * secondsSince(start) / kinstr

	fi := float64(ctr.Instrs)
	c.SetFastForward(cpu.FFRates{
		PsPerInstr: float64(t) / fi,
		LoadsL2:    float64(ctr.LoadsL2) / fi, LoadsL3: float64(ctr.LoadsL3) / fi, LoadsDRAM: float64(ctr.LoadsDRAM) / fi,
		Stores: float64(ctr.Stores) / fi, StoresDRAM: float64(ctr.StoresDRAM) / fi,
		CritPs: float64(ctr.CritNS) / fi, LeadPs: float64(ctr.LeadNS) / fi, StallPs: float64(ctr.StallNS) / fi, SQFullPs: float64(ctr.SQFull) / fi,
	})
	const fastBlocks = 2_000_000
	start = now()
	for i := 0; i < fastBlocks; i++ {
		t = c.RunFast(t, blockInstrs, &ctr)
	}
	fastNS = 1e9 * secondsSince(start) / (fastBlocks * blockInstrs / 1000)
	return runNS, fastNS
}

// shapedAddr draws a line address from the spec's hot set with
// probability HotFrac, else from its cold region.
func shapedAddr(r *rng.Source, spec dacapo.Spec) mem.Addr {
	if r.Bool(spec.HotFrac) {
		return mem.Addr(0x1000_0000 + r.Int63n(max64(spec.HotKB, 1)<<10)).Line()
	}
	return mem.Addr(0x4000_0000 + r.Int63n(max64(spec.ColdMB, 1)<<20)).Line()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// probeMem times Cache.Access on the spec's hot set (hits) and cold
// region (misses) in an L2-sized cache, and DRAM.Access on cold lines.
func probeMem(spec dacapo.Spec, seed uint64) (hitNS, missNS, dramNS float64) {
	cfg := mem.DefaultHierarchyConfig(1)
	c := mem.NewCache(cfg.L2)
	hotLines := int(max64(spec.HotKB<<10, 64<<10) / mem.LineSize)
	if limit := cfg.L2.SizeBytes / 2 / mem.LineSize; hotLines > limit {
		hotLines = limit
	}
	for i := 0; i < hotLines; i++ {
		c.Access(mem.Addr(i*mem.LineSize), false)
	}
	const n = 4_000_000
	start := now()
	for i := 0; i < n; i++ {
		c.Access(mem.Addr((i%hotLines)*mem.LineSize), i&7 == 0)
	}
	hitNS = 1e9 * secondsSince(start) / n

	r := rng.New(seed)
	cold := make([]mem.Addr, 8192)
	for i := range cold {
		cold[i] = mem.Addr(0x4000_0000 + r.Int63n(max64(spec.ColdMB, 8)<<20)).Line()
	}
	start = now()
	for i := 0; i < n; i++ {
		c.Access(cold[i&8191], i&3 == 0)
	}
	missNS = 1e9 * secondsSince(start) / n

	d := mem.NewDRAM(cfg.DRAM)
	const dn = 2_000_000
	t := units.Time(0)
	start = now()
	for i := 0; i < dn; i++ {
		d.Access(t, cold[i&8191], i&3 == 0)
		t += 5 * units.Nanosecond
		if i&4095 == 4095 {
			d.Reset()
			t = 0
		}
	}
	dramNS = 1e9 * secondsSince(start) / dn
	return hitNS, missNS, dramNS
}

// probeFutex times a futex ping-pong between two simulated threads on two
// cores: each handoff parks one thread and wakes the other.
func probeFutex() (float64, error) {
	const n = 20_000
	eng := event.New()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	clock := units.NewClock(experiments.FMin)
	cores := []*cpu.Core{
		cpu.NewCore(0, cpu.DefaultConfig(), clock, hier),
		cpu.NewCore(1, cpu.DefaultConfig(), clock, hier),
	}
	k := kernel.New(eng, cores, kernel.DefaultConfig())
	var fa, fb kernel.Futex
	turn := 0
	player := func(me int, mine, other *kernel.Futex) kernel.Program {
		return func(e *kernel.Env) {
			blk := &cpu.Block{Instrs: 200, IPC: 2}
			for i := 0; i < n; i++ {
				e.ParkIf(mine, func() bool { return turn != me })
				e.Compute(blk)
				turn = 1 - me
				e.Wake(other, 1)
			}
		}
	}
	k.Spawn("ping", kernel.ClassApp, 0, player(0, &fa, &fb))
	k.Spawn("pong", kernel.ClassApp, 1, player(1, &fb, &fa))
	start := now()
	if _, err := k.Run(); err != nil {
		return 0, fmt.Errorf("futex probe: %w", err)
	}
	return 1e6 * secondsSince(start) / (2 * n), nil
}

// probePredict times Model.Predict (DEP+BURST, M+CRIT, COOP) on the
// workload's observations, 1 GHz -> 4 GHz.
func probePredict(obs []*core.Observation) [3]float64 {
	models := []core.Model{core.NewDEPBurst(), core.NewMCrit(core.Options{}), core.NewCOOP(core.Options{})}
	var out [3]float64
	var sink units.Time
	for mi, m := range models {
		lat := timeEach(200*len(obs), func(i int) { sink += m.Predict(obs[i%len(obs)], experiments.FMax) })
		out[mi] = median(lat)
	}
	runtime.KeepAlive(sink)
	return out
}

// probeDecide runs spec under the energy manager with the governor
// wrapped, timing each decision.
func probeDecide(spec dacapo.Spec, sampled bool) (float64, error) {
	m := sim.New(machineConfig(spec, experiments.FMax, sampled))
	g := energy.NewManager(energy.DefaultManagerConfig(managedThresholds[0])).Governor()
	var lat []float64
	m.SetGovernor(func(m *sim.Machine, s sim.QuantumSample) units.Freq {
		start := now()
		f := g(m, s)
		lat = append(lat, 1e6*secondsSince(start))
		return f
	})
	if _, err := m.Run(dacapo.New(spec)); err != nil {
		return 0, fmt.Errorf("governor probe: %w", err)
	}
	return median(lat), nil
}

// probeSimcache times content keys, puts and gets of one result in a
// scratch store and reports the entry size.
func probeSimcache(dir string, res *sim.Result, spec dacapo.Spec) (putMS, getMS, keyUS, entryKB float64, err error) {
	st, err := openEmptyStore(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	const n = 16
	keys := make([]string, n)
	cfg := machineConfig(spec, res.Freq, false)
	keyLat := timeEach(400, func(i int) {
		c := cfg
		c.Seed = uint64(1000 + i)
		k, kerr := simcache.Key(c, spec)
		if kerr == nil && i < n {
			keys[i] = k
		}
	})
	put := timeEach(n, func(i int) { _ = st.Put(keys[i], res) })
	get := timeEach(n, func(i int) {
		var out sim.Result
		if !st.Get(keys[i], &out) {
			err = fmt.Errorf("simcache probe: entry %d missing", i)
		}
	})
	entries, size, serr := st.Size()
	if serr != nil {
		return 0, 0, 0, 0, serr
	}
	if entries > 0 {
		entryKB = float64(size) / float64(entries) / 1024
	}
	return median(put) / 1e3, median(get) / 1e3, median(keyLat), entryKB, err
}

// probeSurrogate times Predict over the corpus and Observe of new points
// into a separately trained copy.
func probeSurrogate(m *surrogate.Model, samples []surrogate.Sample) (predictUS, observeUS float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	pred := timeEach(100*len(samples), func(i int) {
		s := samples[i%len(samples)]
		m.Predict(s.Config, s.Spec)
	})
	cp := surrogate.Train(samples)
	obsLat := timeEach(len(samples), func(i int) {
		s := samples[i]
		cfg := s.Config
		cfg.Freq += 250
		cp.Observe(cfg, s.Spec, s.Time)
	})
	return median(pred), median(obsLat)
}

// probeDecode times DecodePredictRequest on the workload's request bodies.
func probeDecode(bodies [][]byte) float64 {
	lat := timeEach(len(bodies), func(i int) {
		_, _ = server.DecodePredictRequest(bytes.NewReader(bodies[i]), 1<<20)
	})
	return median(lat)
}
