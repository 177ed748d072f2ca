package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/server"
	"depburst/internal/units"
)

// Each oracle must reject a wrong answer; these tests feed each one a
// correct output and the same output made wrong.

func TestCheckMonotoneRejectsRisingTime(t *testing.T) {
	if err := checkMonotone("x", []units.Time{400, 300, 300, 200}); err != nil {
		t.Errorf("non-increasing times rejected: %v", err)
	}
	if err := checkMonotone("x", []units.Time{400, 300, 350, 200}); err == nil {
		t.Error("T(f) rising from 2 to 3 GHz accepted")
	}
}

func TestCheckSampledRejectsTimeOutsideBound(t *testing.T) {
	if err := checkSampled("x", 1000, 104, 0.05, 100); err != nil {
		t.Errorf("sampled time inside its bound rejected: %v", err)
	}
	if err := checkSampled("x", 1000, 106, 0.05, 100); err == nil {
		t.Error("sampled time 6% off accepted under a 5% bound")
	}
	if err := checkSampled("x", 1000, 94, 0.05, 100); err == nil {
		t.Error("sampled time 6% low accepted under a 5% bound")
	}
}

func TestPropertyChecksRejectWrongAnswers(t *testing.T) {
	if checkInstrs("x", 1000, 99, 100) == nil {
		t.Error("run committing fewer instructions than its spec accepted")
	}
	if checkInstrs("x", 1000, 100, 100) != nil {
		t.Error("run committing its spec's instructions rejected")
	}
	if checkModelOrder(4000, 0.05, 0.04) == nil {
		t.Error("DEP+BURST worse than M+CRIT accepted")
	}
	if checkModelOrder(4000, 0.01, 0.10) != nil {
		t.Error("DEP+BURST better than M+CRIT rejected")
	}
	if checkManaged("x", 0.05, 100, 100, 110, 100) == nil {
		t.Error("managed run using as much energy as 4 GHz accepted")
	}
	if checkManaged("x", 0.05, 90, 100, 99, 100) == nil {
		t.Error("managed run faster than 4 GHz accepted")
	}
	if checkManaged("x", 0.05, 90, 100, 104, 100) != nil {
		t.Error("valid managed run rejected")
	}
}

// tinyOracle simulates one small spec at 1-4 GHz on a fresh Runner and
// returns a plan request for it with the oracle that judges it.
func tinyOracle(t *testing.T, req server.PredictRequest, class reqClass) (planReq, *oracle) {
	t.Helper()
	spec := dacapo.Sunflow().Scaled(0.01)
	r := experiments.NewRunnerWorkers(1)
	truths := map[units.Freq]truthRec{}
	for _, f := range experiments.EvalFreqs {
		truths[f] = recordOf(r.Truth(spec, f))
	}
	req.Bench = spec.Name
	p := planReq{class: class, req: req, spec: spec}
	o := &oracle{full: map[string]map[units.Freq]truthRec{specKey(spec): truths}}
	return p, o
}

func TestVerdictRejectsPerturbedBaseTime(t *testing.T) {
	p, o := tinyOracle(t, server.PredictRequest{
		BaseMHz: 1000, TargetsMHz: []int64{2000, 4000}, Models: []string{"dep+burst", "mcrit"}, Actual: true,
	}, classActual)
	want, err := o.expected(p)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(want)
	if err := o.verdict(p, string(body)); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	bad := want
	bad.BaseTimePS++
	body, _ = json.Marshal(bad)
	if o.verdict(p, string(body)) == nil {
		t.Error("base_time_ps off by 1 ps accepted")
	}
	bad = want
	bad.Predictions = append([]server.Prediction(nil), want.Predictions...)
	bad.Predictions[1].PredictedPS--
	body, _ = json.Marshal(bad)
	if o.verdict(p, string(body)) == nil {
		t.Error("predicted_ps off by 1 ps accepted")
	}
}

func TestVerdictHoldsSurrogateToTolerance(t *testing.T) {
	p, o := tinyOracle(t, server.PredictRequest{BaseMHz: 1000, TargetsMHz: []int64{3000}}, classTier0)
	truths := o.full[specKey(p.spec)]
	answer := func(scale float64) string {
		resp := server.PredictResponse{
			Bench: p.spec.Name, BaseMHz: 1000, Tier: server.TierSurrogate,
			BaseTimePS: int64(float64(truths[1000].time) * scale),
			Predictions: []server.Prediction{{
				Model: "dep+burst", TargetMHz: 3000, PredictedPS: int64(float64(truths[3000].time) * scale),
			}},
		}
		b, _ := json.Marshal(resp)
		return string(b)
	}
	if err := o.verdict(p, answer(1.04)); err != nil {
		t.Errorf("surrogate answer 4%% off rejected: %v", err)
	}
	if o.verdict(p, answer(1.06)) == nil {
		t.Error("surrogate answer 6% off accepted")
	}
	p.class = classReplay
	if o.verdict(p, answer(1)) == nil {
		t.Error("surrogate answer to a request it must not answer accepted")
	}
}

func TestPlanSharesFixedAcrossSeeds(t *testing.T) {
	count := func(seed uint64) map[reqClass]int {
		plan, err := buildPlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		n := map[reqClass]int{}
		for _, p := range plan {
			n[p.class]++
			if p.class == classAlias || p.class == classAliasBase {
				if !bytes.Contains(p.body, []byte(`"alias-`)) {
					t.Errorf("seed %d: aliased request without an alias- name", seed)
				}
			}
		}
		return n
	}
	a, b := count(1), count(2)
	for c := classTier0; c <= classAlias; c++ {
		if a[c] != b[c] {
			t.Errorf("class %d: %d requests for seed 1, %d for seed 2", c, a[c], b[c])
		}
	}
	if a[classAlias] != len(aliasedSpecs()) {
		t.Errorf("%d aliased requests, want one per aliased content (%d)", a[classAlias], len(aliasedSpecs()))
	}
	p1, _ := buildPlan(7)
	p2, _ := buildPlan(7)
	for i := range p1 {
		if !bytes.Equal(p1[i].body, p2[i].body) {
			t.Fatalf("request %d differs between two plans from one seed", i)
		}
	}
}

func TestReferenceMatchesSampledSpecs(t *testing.T) {
	specs := simSampledConfig().specs()
	if _, err := loadReference(specs); err != nil {
		t.Fatalf("embedded reference table: %v", err)
	}
	other := append([]dacapo.Spec(nil), specs...)
	other[0].ItemInstrs++
	if _, err := loadReference(other); err == nil {
		t.Error("reference table accepted for a spec it was not made for")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "depburst/internal/mem.(*Cache).Access", "depburst/internal/cpu.(*Core).Run"}, "mem"},
		{[]string{"math.archLog", "depburst/internal/rng.(*Source).Geometric"}, "rng"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime_sched"},
		{[]string{"depburst/internal/server.(*Server).handlePredict"}, "other"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.funcs); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.funcs, got, c.want)
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	start := now()
	x := 1.0
	for secondsSince(start) < 0.2 {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	if _, err := parseCPUProfile(buf.Bytes()); err != nil {
		t.Fatalf("parse: %v (x=%v)", err, x)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestResultLineIsJSON(t *testing.T) {
	r := &result{attempted: 3, failed: 1}
	r.add("wall_s", "s", 1.25)
	r.problem("x")
	var doc runLine
	if err := json.Unmarshal(r.line(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Correct || doc.Attempted != 3 || doc.Failed != 1 || doc.Metrics["wall_s"].Value != 1.25 {
		t.Errorf("round trip = %+v", doc)
	}
	if !strings.HasSuffix(string(r.line()), "}\n") {
		t.Error("result line does not end the output line")
	}
}

func TestOpenEmptyStoreRefusesExistingDir(t *testing.T) {
	dir := t.TempDir()
	st, err := openEmptyStore(dir + "/c")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := openEmptyStore(dir + "/c"); err == nil {
		t.Error("a used cache directory was opened as empty")
	}
}

func TestCheckServeRoundFailsOnlyAliasedRequests(t *testing.T) {
	plan := []planReq{{class: classTier0}, {class: classAliasBase}, {class: classAlias}}
	aliased := errors.New("base_time_ps of another content")
	run := func(sims int64, verdicts [][]error, status int) *result {
		res := &result{}
		rd := &serveRound{status: []int{http.StatusOK, http.StatusOK, status}, variant: make([]int, 3), sims: sims}
		checkServeRound(res, plan, rd, verdicts, &oracle{})
		return res
	}
	if res := run(1, [][]error{{nil}, {nil}, {aliased}}, http.StatusOK); res.failed != 1 || len(res.problems) != 0 {
		t.Errorf("aliased answer: failed %d, problems %v; want 1 failure and no problem", res.failed, res.problems)
	}
	if res := run(2, [][]error{{nil}, {nil}, {nil}}, http.StatusOK); res.failed != 0 || len(res.problems) != 0 {
		t.Errorf("aliasing fixed: failed %d, problems %v; want neither", res.failed, res.problems)
	}
	if res := run(1, [][]error{{nil}, {nil}, {nil}}, http.StatusOK); len(res.problems) == 0 {
		t.Error("a correct aliased answer without its own simulation accepted")
	}
	if res := run(1, [][]error{{aliased}, {nil}, {aliased}}, http.StatusOK); len(res.problems) == 0 {
		t.Error("a wrong tier-0 answer accepted as an expected failure")
	}
	if res := run(1, [][]error{{nil}, {nil}, {nil}}, http.StatusTooManyRequests); res.failed != 1 {
		t.Errorf("a refused request counted as %d failures, want 1", res.failed)
	}
}

func TestSimOpsLargestSpecFirst(t *testing.T) {
	specs := simColdConfig().specs()
	for _, seed := range []uint64{1, 2} {
		ops := simColdConfig().simOps(specs, seed)
		if len(ops) != len(specs)*(len(experiments.EvalFreqs)+len(managedThresholds)) {
			t.Fatalf("seed %d: %d operations", seed, len(ops))
		}
		for i := 1; i < len(ops); i++ {
			if specs[ops[i].spec].TotalInstrs() > specs[ops[i-1].spec].TotalInstrs() {
				t.Fatalf("seed %d: operation %d is larger than the one before it", seed, i)
			}
		}
	}
}
