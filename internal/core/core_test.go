package core

import (
	"testing"
	"testing/quick"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

func TestScaleTime(t *testing.T) {
	if got := scaleTime(1000, 1000, 4000); got != 250 {
		t.Errorf("1000ps 1->4GHz = %v", got)
	}
	if got := scaleTime(1000, 4000, 1000); got != 4000 {
		t.Errorf("1000ps 4->1GHz = %v", got)
	}
	if got := scaleTime(-5, 1000, 2000); got != 0 {
		t.Errorf("negative duration = %v", got)
	}
	// Property: identity at equal frequencies.
	err := quick.Check(func(d int64, fRaw uint16) bool {
		f := units.Freq(fRaw%4000) + 1
		dd := units.Time(d % (1 << 40))
		if dd < 0 {
			dd = -dd
		}
		return scaleTime(dd, f, f) == dd
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNonScalingEngineAndClamp(t *testing.T) {
	c := cpu.Counters{CritNS: 100, LeadNS: 80, StallNS: 50, SQFull: 30}
	cases := []struct {
		o    Options
		want units.Time
	}{
		{Options{Engine: CRIT}, 100},
		{Options{Engine: LeadingLoads}, 80},
		{Options{Engine: StallTime}, 50},
		{Options{Engine: CRIT, Burst: true}, 130},
		{Options{Engine: LeadingLoads, Burst: true}, 110},
	}
	for _, cs := range cases {
		if got := nonScaling(&c, 1000, cs.o); got != cs.want {
			t.Errorf("%+v: ns = %v, want %v", cs.o, got, cs.want)
		}
	}
	// Clamp to active.
	if got := nonScaling(&c, 90, Options{Engine: CRIT, Burst: true}); got != 90 {
		t.Errorf("clamp: %v", got)
	}
}

func TestPredictThreadLaw(t *testing.T) {
	c := cpu.Counters{CritNS: 400}
	// 1000ps active of which 400 non-scaling; 1->2GHz: 600/2 + 400 = 700.
	if got := predictThread(1000, &c, Options{}, 1000, 2000); got != 700 {
		t.Errorf("predictThread = %v, want 700", got)
	}
	// 2->1GHz: 600*2 + 400 = 1600.
	if got := predictThread(1000, &c, Options{}, 2000, 1000); got != 1600 {
		t.Errorf("predictThread down = %v, want 1600", got)
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{CRIT: "CRIT", LeadingLoads: "LL", StallTime: "STALL", Engine(9): "?"} {
		if e.String() != want {
			t.Errorf("%d = %q", e, e.String())
		}
	}
}

func TestModelNames(t *testing.T) {
	cases := map[string]Model{
		"M+CRIT":               NewMCrit(Options{}),
		"M+CRIT+BURST":         NewMCrit(Options{Burst: true}),
		"COOP":                 NewCOOP(Options{}),
		"DEP+BURST":            NewDEPBurst(),
		"DEP+BURST(per-epoch)": NewDEP(Options{Burst: true, PerEpochCTP: true}),
		"DEP(LL)":              NewDEP(Options{Engine: LeadingLoads}),
	}
	for want, m := range cases {
		if m.Name() != want {
			t.Errorf("Name = %q, want %q", m.Name(), want)
		}
	}
}

// mkObs builds a two-thread observation: both span [0,total]; worker has
// the given non-scaling time, main sleeps throughout (the M+CRIT trap).
func mkObs(total, workerNS units.Time) *Observation {
	return &Observation{
		Base:  1000,
		Total: total,
		Threads: []ThreadObs{
			{TID: 0, Name: "main", Class: kernel.ClassApp, Start: 0, End: total},
			{TID: 1, Name: "worker", Class: kernel.ClassApp, Start: 0, End: total,
				C: cpu.Counters{Active: total, CritNS: workerNS}},
		},
	}
}

func TestMCritTakesSlowestThread(t *testing.T) {
	m := NewMCrit(Options{})
	obs := mkObs(1000, 600)
	// At 2 GHz: main predicts 500 (pure scaling wall time); worker
	// predicts 400/2+600 = 800. Critical thread: worker.
	if got := m.Predict(obs, 2000); got != 800 {
		t.Errorf("M+CRIT = %v, want 800", got)
	}
	// Down to 500 MHz: main predicts 2000 — the sleeping main thread
	// dominates, the misattribution the paper describes.
	if got := m.Predict(obs, 500); got != 2000 {
		t.Errorf("M+CRIT down = %v, want 2000", got)
	}
}

func TestMCritIdentity(t *testing.T) {
	m := NewMCrit(Options{})
	obs := mkObs(12345, 1000)
	if got := m.Predict(obs, obs.Base); got != 12345 {
		t.Errorf("identity = %v", got)
	}
}

// figure2Epochs builds the paper's Figure 2 scenario: t0 and t1 run in
// parallel; t1 blocks on t0's critical section; both resume after.
func figure2Epochs() []kernel.Epoch {
	act := func(tid kernel.ThreadID, active, ns units.Time) kernel.ThreadSlice {
		return kernel.ThreadSlice{TID: tid, Class: kernel.ClassApp,
			Delta: cpu.Counters{Active: active, CritNS: ns}}
	}
	return []kernel.Epoch{
		// Epoch a/x: both compute until t1 blocks on the lock.
		{Start: 0, End: 1000, EndKind: kernel.BoundarySleep, StallTID: 1,
			Slices: []kernel.ThreadSlice{act(0, 1000, 0), act(1, 1000, 0)}},
		// Epoch b: t0 alone in the critical section.
		{Start: 1000, End: 1800, EndKind: kernel.BoundaryWake, StallTID: kernel.NoThread,
			Slices: []kernel.ThreadSlice{act(0, 800, 0)}},
		// Epoch c/z: both compute to the end.
		{Start: 1800, End: 3000, EndKind: kernel.BoundaryExit, StallTID: 0,
			Slices: []kernel.ThreadSlice{act(0, 1200, 0), act(1, 1200, 0)}},
	}
}

func TestDEPFigure2PureScaling(t *testing.T) {
	// With everything scaling, halving frequency doubles each epoch.
	eps := figure2Epochs()
	got := PredictEpochs(eps, 1000, 500, Options{})
	if got != 6000 {
		t.Errorf("DEP on Figure 2 at half frequency = %v, want 6000", got)
	}
	// Identity.
	if got := PredictEpochs(eps, 1000, 1000, Options{}); got != 3000 {
		t.Errorf("identity = %v", got)
	}
}

// TestAcrossEpochCarriesSlack is the worked Algorithm 1 example: a thread
// that finishes its epoch work early (because its work is memory-bound and
// the target is faster) must absorb that slack when it becomes critical in
// the next epoch. Per-epoch CTP overestimates; across-epoch CTP is exact.
func TestAcrossEpochCarriesSlack(t *testing.T) {
	act := func(tid kernel.ThreadID, active, ns units.Time) kernel.ThreadSlice {
		return kernel.ThreadSlice{TID: tid,
			Delta: cpu.Counters{Active: active, CritNS: ns}}
	}
	// Both threads are fully active in both epochs at the base frequency
	// (as in Figure 2: differences only appear at the target). Thread t1
	// is memory-bound in epoch 1, t0 memory-bound in epoch 2.
	eps := []kernel.Epoch{
		{Start: 0, End: 2000, EndKind: kernel.BoundaryWake, StallTID: kernel.NoThread,
			Slices: []kernel.ThreadSlice{act(0, 2000, 0), act(1, 2000, 1600)}},
		{Start: 2000, End: 4000, EndKind: kernel.BoundaryExit, StallTID: 0,
			Slices: []kernel.ThreadSlice{act(0, 2000, 2000), act(1, 2000, 0)}},
	}
	// Identity: both CTP modes reproduce the measurement.
	if got := PredictEpochs(eps, 1000, 1000, Options{}); got != 4000 {
		t.Errorf("across-epoch identity = %v, want 4000", got)
	}
	if got := PredictEpochs(eps, 1000, 1000, Options{PerEpochCTP: true}); got != 4000 {
		t.Errorf("per-epoch identity = %v, want 4000", got)
	}

	// At 4 GHz:
	// Epoch 1: a_t0 = 2000/4 = 500; a_t1 = 400/4 + 1600 = 1700 -> I' =
	// 1700; t0 finished early, carrying 1200 of slack.
	// Epoch 2: a_t0 = 2000 (all memory); a_t1 = 500. Across-epoch knows
	// t0 effectively started its epoch-2 work 1200 early: e_t0 = 800 ->
	// I' = 800, total 2500. Per-epoch charges t0 in full: 1700 + 2000 =
	// 3700.
	across := PredictEpochs(eps, 1000, 4000, Options{})
	if across != 2500 {
		t.Errorf("across at 4GHz = %v, want 2500", across)
	}
	per := PredictEpochs(eps, 1000, 4000, Options{PerEpochCTP: true})
	if per != 3700 {
		t.Errorf("per-epoch at 4GHz = %v, want 3700", per)
	}
	if across >= per {
		t.Error("across-epoch CTP did not improve on per-epoch CTP")
	}
}

func TestStallResetDropsSlack(t *testing.T) {
	// Same shape as TestAcrossEpochCarriesSlack, but epoch 1 ends with
	// t0 going to sleep: Algorithm 1 line 9 resets t0's delta, so epoch 2
	// charges t0 in full and across-epoch matches per-epoch.
	act := func(tid kernel.ThreadID, active, ns units.Time) kernel.ThreadSlice {
		return kernel.ThreadSlice{TID: tid,
			Delta: cpu.Counters{Active: active, CritNS: ns}}
	}
	eps := []kernel.Epoch{
		{Start: 0, End: 2000, EndKind: kernel.BoundarySleep, StallTID: 0,
			Slices: []kernel.ThreadSlice{act(0, 2000, 0), act(1, 2000, 1600)}},
		{Start: 2000, End: 4000, EndKind: kernel.BoundaryExit, StallTID: 0,
			Slices: []kernel.ThreadSlice{act(0, 2000, 2000), act(1, 2000, 0)}},
	}
	got := PredictEpochs(eps, 1000, 4000, Options{})
	if got != 3700 {
		t.Errorf("with stall reset = %v, want 3700", got)
	}
}

func TestIdleEpochsDoNotScale(t *testing.T) {
	eps := []kernel.Epoch{
		{Start: 0, End: 5000}, // no slices: all cores idle
	}
	for _, target := range []units.Freq{500, 1000, 4000} {
		if got := PredictEpochs(eps, 1000, target, Options{}); got != 5000 {
			t.Errorf("idle epoch at %v = %v, want 5000", target, got)
		}
	}
}

func TestPredictAggregate(t *testing.T) {
	c := cpu.Counters{Active: 1000, CritNS: 400, SQFull: 100}
	if got := PredictAggregate(c, 1000, 2000, Options{}); got != 700 {
		t.Errorf("aggregate = %v, want 700", got)
	}
	if got := PredictAggregate(c, 1000, 2000, Options{Burst: true}); got != 750 {
		t.Errorf("aggregate burst = %v, want 750", got)
	}
}

func TestBurstMovesSQFull(t *testing.T) {
	act := kernel.ThreadSlice{TID: 0,
		Delta: cpu.Counters{Active: 1000, CritNS: 200, SQFull: 300}}
	eps := []kernel.Epoch{{Start: 0, End: 1000, Slices: []kernel.ThreadSlice{act}}}
	// Without BURST at 2 GHz: (1000-200)/2 + 200 = 600.
	if got := PredictEpochs(eps, 1000, 2000, Options{}); got != 600 {
		t.Errorf("no burst = %v", got)
	}
	// With BURST: (1000-500)/2 + 500 = 750.
	if got := PredictEpochs(eps, 1000, 2000, Options{Burst: true}); got != 750 {
		t.Errorf("burst = %v", got)
	}
}

func TestCOOPPhaseSplit(t *testing.T) {
	// One app phase [0,1000], one GC phase [1000,1500], one app phase
	// [1500,2500]. The GC phase is driven by a service thread.
	app := ThreadObs{TID: 0, Class: kernel.ClassApp, Start: 0, End: 2500,
		C: cpu.Counters{Active: 2000}}
	gc := ThreadObs{TID: 1, Class: kernel.ClassService, Start: 0, End: 2500,
		C: cpu.Counters{Active: 500, CritNS: 400}}
	obs := &Observation{
		Base:    1000,
		Total:   2500,
		Threads: []ThreadObs{app, gc},
		Marks: []kernel.Mark{
			{At: 1000, Label: "gc-start"},
			{At: 1500, Label: "gc-end"},
		},
		Epochs: []kernel.Epoch{
			{Start: 0, End: 1000, Slices: []kernel.ThreadSlice{
				{TID: 0, Class: kernel.ClassApp, Delta: cpu.Counters{Active: 1000}}}},
			{Start: 1000, End: 1500, Slices: []kernel.ThreadSlice{
				{TID: 1, Class: kernel.ClassService, Delta: cpu.Counters{Active: 500, CritNS: 400}}}},
			{Start: 1500, End: 2500, Slices: []kernel.ThreadSlice{
				{TID: 0, Class: kernel.ClassApp, Delta: cpu.Counters{Active: 1000}}}},
		},
	}
	m := NewCOOP(Options{})
	// At 2 GHz: app phases scale (500 + 1000/2 = 500+500); GC phase:
	// service thread, duration 500 with 400 NS -> 100/2+400 = 450.
	want := units.Time(500 + 450 + 500)
	if got := m.Predict(obs, 2000); got != want {
		t.Errorf("COOP = %v, want %v", got, want)
	}
	// Identity.
	if got := m.Predict(obs, 1000); got != 2500 {
		t.Errorf("COOP identity = %v", got)
	}
	// M+CRIT on the same observation cannot separate the phases: the GC
	// thread's wall time is the whole run, so its prediction at 2 GHz is
	// (2500-400)/2+400 = 1450; app thread: 2500/2=1250. Max = 1450 —
	// less than COOP's 1450? M+CRIT picks 1450, COOP 1450... both
	// predict the same number here, but COOP is *correct* (actual would
	// be 1450 only if phases overlap fully). The structural difference
	// is exercised by the integration tests; here we just pin the math.
	mc := NewMCrit(Options{})
	if got := mc.Predict(obs, 2000); got != 1450 {
		t.Errorf("M+CRIT = %v, want 1450", got)
	}
}

func TestDEPEmptyEpochs(t *testing.T) {
	if got := PredictEpochs(nil, 1000, 2000, Options{}); got != 0 {
		t.Errorf("empty epoch stream = %v", got)
	}
}
