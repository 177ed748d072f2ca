package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/report"
	"depburst/internal/rng"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// sampledScale multiplies the stock specs' work for sim-sampled: at this
// size most simulated time is fast-forwarded and one sampled matrix takes
// about as long on the host as the full-detail sim-cold matrix.
const sampledScale = 4

// setupReps is how many times a sim workload opens an empty cache
// directory and a fresh Runner per round; the round reports the mean. One
// opening takes about two microseconds and, on the reference machine,
// single ones swing between two levels 70% apart; the mean of this many (about 0.1 s
// of them) repeats within a few percent.
const setupReps = 50000

// assemblyPasses is how many times a round assembles the Figure 1 (and
// Figure 6) table from the Runner's memo after simulating.
const assemblyPasses = 20

// managedThresholds are Figure 6's slowdown thresholds.
var managedThresholds = []float64{0.05, 0.10}

// simConfig selects one of the two simulation workloads.
type simConfig struct {
	name    string
	scale   float64 // work multiplier applied to every stock spec
	sampled bool    // run under sampling.DefaultPolicy()
	managed bool    // add Figure 6's energy-managed runs
}

func simColdConfig() simConfig {
	return simConfig{name: "sim-cold", scale: 1, managed: true}
}

func simSampledConfig() simConfig {
	return simConfig{name: "sim-sampled", scale: sampledScale, sampled: true}
}

// specs is the workload's benchmark suite: the stock specs, scaled.
func (c simConfig) specs() []dacapo.Spec {
	return scaledSuite(c.scale)
}

func scaledSuite(scale float64) []dacapo.Spec {
	var out []dacapo.Spec
	for _, s := range dacapo.Suite() {
		if scale != 1 {
			s = s.Scaled(scale)
		}
		out = append(out, s)
	}
	return out
}

// newRunner builds a fresh Runner with the workload's worker count and,
// when sampled, the default sampling policy.
func (c simConfig) newRunner() *experiments.Runner {
	r := experiments.NewRunnerWorkers(clients)
	if c.sampled {
		r.SetSampling(sampling.DefaultPolicy())
	}
	return r
}

// simOp is one simulation a round issues: a truth run at freq, or (when
// threshold > 0) an energy-managed run starting at the maximum frequency.
type simOp struct {
	spec      int
	freq      units.Freq
	threshold float64
}

// simOps lists the round's simulations: largest spec first, so that the
// two clients finish together, and in the order the seed picks among the
// runs of one spec. Otherwise the seed would decide how long one client
// idles at the end of the round.
func (c simConfig) simOps(specs []dacapo.Spec, seed uint64) []simOp {
	var ops []simOp
	for i := range specs {
		for _, f := range experiments.EvalFreqs {
			ops = append(ops, simOp{spec: i, freq: f})
		}
		if c.managed {
			for _, thr := range managedThresholds {
				ops = append(ops, simOp{spec: i, threshold: thr})
			}
		}
	}
	perm := rng.New(seed).Perm(len(ops))
	out := make([]simOp, len(ops))
	for i, p := range perm {
		out[i] = ops[p]
	}
	sort.SliceStable(out, func(i, j int) bool {
		return specs[out[i].spec].TotalInstrs() > specs[out[j].spec].TotalInstrs()
	})
	return out
}

// simRound is what one measured round produced.
type simRound struct {
	setupS     float64
	use        spent
	retainedMB float64
	missLat    []float64 // seconds per simulation call
	hitLat     []float64 // seconds per table assembly from the memo
	instrs     int64     // committed instructions of every simulated thread
	sims       int64
	truth      [][]*sim.Result // [spec][EvalFreqs index]
	managed    [][]*sim.Result // [spec][threshold index]
	store      *simcache.Store
	runner     *experiments.Runner
}

// simRoundRun executes one round: set-up, every simulation from two
// closed-loop clients, then the table assembly from the memo.
func simRoundRun(c simConfig, specs []dacapo.Spec, ops []simOp, dir string) (*simRound, error) {
	rd := &simRound{}
	// The directory is made before the clock starts: on the reference
	// machine (a 2-vCPU virtual machine) a mkdir costs tens to hundreds of
	// microseconds and drifts as directories come and go, which would swamp
	// the program's part. Open
	// leaves it empty, so every repetition opens an empty directory.
	cacheDir := filepath.Join(dir, "cache")
	if err := os.Mkdir(cacheDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GC() // the previous round's garbage is not this set-up's cost
	start := now()
	for i := 0; i < setupReps; i++ {
		st, err := simcache.Open(cacheDir, 0)
		if err != nil {
			return nil, err
		}
		r := c.newRunner()
		r.SetDiskCache(st)
		rd.store, rd.runner = st, r
	}
	rd.setupS = secondsSince(start) / setupReps
	runtime.GC() // nor is the set-up's garbage the round's
	r := rd.runner

	rd.truth = make([][]*sim.Result, len(specs))
	rd.managed = make([][]*sim.Result, len(specs))
	for i := range specs {
		rd.truth[i] = make([]*sim.Result, len(experiments.EvalFreqs))
		rd.managed[i] = make([]*sim.Result, len(managedThresholds))
	}
	results := make([]*sim.Result, len(ops))
	var mu sync.Mutex

	before := snapshot()
	rd.missLat = closedLoop(len(ops), func(i int) {
		op := ops[i]
		var res *sim.Result
		if op.threshold > 0 {
			res, _ = r.ManagedRun(specs[op.spec], op.threshold)
		} else {
			res = r.Truth(specs[op.spec], op.freq)
		}
		mu.Lock()
		results[i] = res
		mu.Unlock()
	})
	// Collect the simulations' garbage first, so that the replay timings
	// do not depend on how far a background collection had got.
	runtime.GC()
	rd.hitLat = assemble(r, specs, c.managed)
	rd.use = before.until(snapshot())
	rd.retainedMB = retainedHeapMB()
	runtime.KeepAlive(r)

	for i, op := range ops {
		res := results[i]
		rd.instrs += res.TotalCounters().Instrs
		if op.threshold > 0 {
			rd.managed[op.spec][thresholdIndex(op.threshold)] = res
		} else {
			rd.truth[op.spec][freqIndex(op.freq)] = res
		}
	}
	rd.sims = r.Simulations()
	return rd, nil
}

// assemble builds the Figure 1 table (and, with managed runs, the Figure 6
// table) from the Runner's memo, assemblyPasses times, and returns each
// pass's host seconds. A pass is what rendering a figure from a warm memo
// costs: memoised truth lookups, one observation and one prediction per
// model per cell.
func assemble(r *experiments.Runner, specs []dacapo.Spec, managed bool) []float64 {
	models := []core.Model{core.NewMCrit(core.Options{}), core.NewDEPBurst()}
	lat := make([]float64, assemblyPasses)
	var sink units.Time
	for pass := range lat {
		start := now()
		for _, spec := range specs {
			for _, target := range experiments.EvalFreqs[1:] {
				for _, m := range models {
					obs := experiments.Observe(r.Truth(spec, experiments.FMin))
					sink += m.Predict(obs, target) - r.Truth(spec, target).Time
				}
			}
			if managed {
				for _, thr := range managedThresholds {
					res, _ := r.ManagedRun(spec, thr)
					sink += res.Time - r.Truth(spec, experiments.FMax).Time
				}
			}
		}
		lat[pass] = secondsSince(start)
	}
	runtime.KeepAlive(sink)
	return lat
}

func freqIndex(f units.Freq) int {
	for i, g := range experiments.EvalFreqs {
		if g == f {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: %v is not an evaluation frequency", f))
}

func thresholdIndex(thr float64) int {
	for i, t := range managedThresholds {
		if t == thr {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: %v is not a Figure 6 threshold", thr))
}

// depBurstMAE is the DEP+BURST mean absolute relative error, in percent,
// over every 1 GHz -> 2/3/4 GHz pair: predictions from obs[spec] against
// the times in ref[spec][EvalFreqs index].
func depBurstMAE(obs []*core.Observation, ref [][]units.Time) float64 {
	errs := modelErrors(core.NewDEPBurst(), obs, ref)
	var all []float64
	for _, e := range errs {
		all = append(all, e...)
	}
	return 100 * report.MeanAbs(all)
}

// modelErrors returns m's relative errors per target (2, 3, 4 GHz), one
// entry per spec.
func modelErrors(m core.Model, obs []*core.Observation, ref [][]units.Time) [][]float64 {
	out := make([][]float64, len(experiments.EvalFreqs)-1)
	for s, o := range obs {
		for ti, target := range experiments.EvalFreqs[1:] {
			pred := m.Predict(o, target)
			out[ti] = append(out[ti], report.RelError(float64(pred), float64(ref[s][ti+1])))
		}
	}
	return out
}

// runSim runs sim-cold or sim-sampled: whole rounds until the host-time
// budget is spent, then the checks, then the metrics.
func runSim(o runOpts, c simConfig) (*result, error) {
	specs := c.specs()
	var ref *reference
	if c.sampled {
		var err error
		if ref, err = loadReference(specs); err != nil {
			return nil, err
		}
	}
	ops := c.simOps(specs, o.seed)
	res := &result{}
	var rounds []*simRound
	mae := 0.0
	start := now()
	for len(rounds) == 0 || secondsSince(start) < o.seconds {
		dir := filepath.Join(o.dir, fmt.Sprintf("round-%d", len(rounds)))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		rd, err := simRoundRun(c, specs, ops, dir)
		if err != nil {
			return nil, err
		}
		checkSimRound(res, c, specs, rd, ref)
		res.attempted += len(ops) + len(rd.hitLat)
		// The model error is a function of simulator output alone, so every
		// round must give the first round's figure bit for bit.
		if m := maeOf(rd, ref); len(rounds) == 0 {
			mae = m
		} else if m != mae {
			res.problem(fmt.Sprintf("round %d: DEP+BURST error %v differs from round 0's %v", len(rounds), m, mae))
		}
		rounds = append(rounds, rd)
		logRound(len(rounds), rd.setupS, rd.use)
		// Release the round's results before the next one is measured, so
		// that its retained heap is its own.
		rd.runner, rd.store, rd.truth, rd.managed = nil, nil, nil, nil
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	simMetrics(res, rounds, mae)
	return res, nil
}

// truthTimes extracts [spec][freq] completion times from a round.
func truthTimes(rd *simRound) [][]units.Time {
	out := make([][]units.Time, len(rd.truth))
	for s, row := range rd.truth {
		for _, res := range row {
			out[s] = append(out[s], res.Time)
		}
	}
	return out
}

// baseObservations returns each spec's 1 GHz observation.
func baseObservations(rd *simRound) []*core.Observation {
	var obs []*core.Observation
	for _, row := range rd.truth {
		obs = append(obs, experiments.Observe(row[0]))
	}
	return obs
}

// maeOf is the round's DEP+BURST error against full-detail truth: the
// round's own truth in full detail, the reference table when sampled.
func maeOf(rd *simRound, ref *reference) float64 {
	times := truthTimes(rd)
	if ref != nil {
		times = ref.times
	}
	return depBurstMAE(baseObservations(rd), times)
}

// simMetrics reports the end-to-end metrics over the rounds. Every
// simulation call is a miss; every table assembled from the memo is a
// replay.
func simMetrics(res *result, rounds []*simRound, maePct float64) {
	e := &endToEnd{maePct: maePct}
	for _, rd := range rounds {
		e.addRound(rd.setupS, rd.use, rd.retainedMB, rd.instrs, len(rd.missLat)+len(rd.hitLat), rd.missLat, rd.hitLat)
	}
	e.emit(res)
}

// checkSimRound applies the workload's oracle to one round. sim-cold has
// no independent reference, so it checks properties the method must have;
// sim-sampled checks every sampled time against the full-detail
// reference table within the run's own reported error bound.
func checkSimRound(res *result, c simConfig, specs []dacapo.Spec, rd *simRound, ref *reference) {
	check := func(err error) {
		if err != nil {
			res.problem(err.Error())
		}
	}
	// Each operation simulates once; the table assembly only reads.
	if rd.sims != int64(len(rd.missLat)) {
		res.problem(fmt.Sprintf("%d simulations for %d operations", rd.sims, len(rd.missLat)))
	}
	if c.sampled {
		for s, spec := range specs {
			for fi, f := range experiments.EvalFreqs {
				tr := rd.truth[s][fi]
				bound := 0.0
				if tr.Sampling != nil {
					bound = tr.Sampling.ErrorBound
				}
				check(checkSampled(spec.Name, f, tr.Time, bound, ref.times[s][fi]))
			}
		}
		return
	}
	for s, spec := range specs {
		check(checkMonotone(spec.Name, truthTimes(rd)[s]))
		for _, tr := range rd.truth[s] {
			check(checkInstrs(spec.Name, tr.Freq, tr.TotalCounters().Instrs, spec.TotalInstrs()))
		}
		top := rd.truth[s][len(experiments.EvalFreqs)-1]
		for ti, thr := range managedThresholds {
			m := rd.managed[s][ti]
			check(checkManaged(spec.Name, thr, m.Energy, top.Energy, m.Time, top.Time))
		}
	}
	obs := baseObservations(rd)
	times := truthTimes(rd)
	dep := modelErrors(core.NewDEPBurst(), obs, times)
	mcrit := modelErrors(core.NewMCrit(core.Options{}), obs, times)
	for ti, target := range experiments.EvalFreqs[1:] {
		check(checkModelOrder(target, report.MeanAbs(dep[ti]), report.MeanAbs(mcrit[ti])))
	}
}

// openEmptyStore creates dir and opens an empty result store in it.
func openEmptyStore(dir string) (*simcache.Store, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	return simcache.Open(dir, 0)
}
