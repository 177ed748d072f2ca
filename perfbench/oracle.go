package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/report"
	"depburst/internal/sampling"
	"depburst/internal/server"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// surrogateTolerance is the relative error a tier-0 answer may carry
// against full-detail truth: the surrogate's accuracy gate
// (`depburst surrogatecheck -max-err`).
const surrogateTolerance = 0.05

// truthRec is what the oracle keeps of one simulation.
type truthRec struct {
	time      units.Time
	instrs    int64
	obs       *core.Observation
	bound     float64    // sampled error bound (0 in full detail)
	fast, all units.Time // sampled fast-forwarded and total time
}

func recordOf(res *sim.Result) truthRec {
	t := truthRec{time: res.Time, instrs: res.TotalCounters().Instrs, obs: experiments.Observe(res)}
	if res.Sampling != nil {
		t.bound, t.fast, t.all = res.Sampling.ErrorBound, res.Sampling.FastTime, res.Sampling.TotalTime
	}
	return t
}

// oracle holds the answers a fresh Runner computes for every distinct
// workload content of the plan: one fresh full-detail Runner per content,
// plus a fresh sampled Runner where the plan asks for sampled answers. A
// Runner per content keeps the oracle itself free of name aliasing.
type oracle struct {
	full    map[string]map[units.Freq]truthRec // [spec key][freq]
	sampled map[string]map[units.Freq]truthRec
}

// need lists the frequencies one content must be simulated at.
type need struct {
	spec    dacapo.Spec
	full    []units.Freq
	sampled []units.Freq
}

func addFreq(fs []units.Freq, f units.Freq) []units.Freq {
	for _, g := range fs {
		if g == f {
			return fs
		}
	}
	return append(fs, f)
}

// newOracle simulates every truth the plan's answers depend on.
func newOracle(plan []planReq) (*oracle, error) {
	var needs []*need
	byKey := make(map[string]*need)
	for _, p := range plan {
		k := specKey(p.spec)
		n := byKey[k]
		if n == nil {
			n = &need{spec: p.spec}
			byKey[k] = n
			needs = append(needs, n)
		}
		base := units.Freq(p.req.BaseMHz)
		n.full = addFreq(n.full, base)
		if p.req.Sampling != nil {
			n.sampled = addFreq(n.sampled, base)
		}
		if p.req.Actual || p.class == classTier0 {
			for _, t := range p.req.TargetsMHz {
				n.full = addFreq(n.full, units.Freq(t))
			}
		}
	}
	full := make([]map[units.Freq]truthRec, len(needs))
	samp := make([]map[units.Freq]truthRec, len(needs))
	var mu sync.Mutex
	closedLoop(len(needs), func(i int) {
		n := needs[i]
		f := make(map[units.Freq]truthRec)
		r := experiments.NewRunnerWorkers(1)
		for _, fr := range n.full {
			f[fr] = recordOf(r.Truth(n.spec, fr))
		}
		s := make(map[units.Freq]truthRec)
		if len(n.sampled) > 0 {
			rs := experiments.NewRunnerWorkers(1)
			rs.SetSampling(sampling.DefaultPolicy())
			for _, fr := range n.sampled {
				s[fr] = recordOf(rs.Truth(n.spec, fr))
			}
		}
		mu.Lock()
		full[i], samp[i] = f, s
		mu.Unlock()
	})
	o := &oracle{full: make(map[string]map[units.Freq]truthRec), sampled: make(map[string]map[units.Freq]truthRec)}
	for i, n := range needs {
		k := specKey(n.spec)
		o.full[k], o.sampled[k] = full[i], samp[i]
	}
	return o, nil
}

// modelByWire maps a wire model name onto its predictor.
func modelByWire(name string) (core.Model, error) {
	switch name {
	case "mcrit":
		return core.NewMCrit(core.Options{}), nil
	case "mcrit+burst":
		return core.NewMCrit(core.Options{Burst: true}), nil
	case "coop":
		return core.NewCOOP(core.Options{}), nil
	case "coop+burst":
		return core.NewCOOP(core.Options{Burst: true}), nil
	case "dep":
		return core.NewDEP(core.Options{}), nil
	case "dep+burst":
		return core.NewDEPBurst(), nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// expected is the Runner-tier response the request must receive, built
// from the oracle's truths: sampled truths for sampled requests.
func (o *oracle) expected(p planReq) (server.PredictResponse, error) {
	k := specKey(p.spec)
	truths := o.full[k]
	if p.req.Sampling != nil {
		truths = o.sampled[k]
	}
	base, ok := truths[units.Freq(p.req.BaseMHz)]
	if !ok {
		return server.PredictResponse{}, fmt.Errorf("oracle has no base truth for %s", p.spec.Name)
	}
	return expectedFrom(p, base, truths)
}

// expectedFrom assembles the response the server's Runner tiers build:
// predictions per model (in request order) per target (ascending), with
// ground truth when the request asks for it.
func expectedFrom(p planReq, base truthRec, truths map[units.Freq]truthRec) (server.PredictResponse, error) {
	resp := server.PredictResponse{Bench: p.spec.Name, BaseMHz: p.req.BaseMHz, BaseTimePS: int64(base.time)}
	models := p.req.Models
	if len(models) == 0 {
		models = []string{"dep+burst"}
	}
	bound, fast, all := base.bound, base.fast, base.all
	for _, name := range models {
		m, err := modelByWire(name)
		if err != nil {
			return resp, err
		}
		for _, tgt := range p.req.TargetsMHz {
			pr := server.Prediction{Model: name, TargetMHz: tgt, PredictedPS: int64(m.Predict(base.obs, units.Freq(tgt)))}
			if p.req.Actual {
				tr, ok := truths[units.Freq(tgt)]
				if !ok {
					return resp, fmt.Errorf("oracle has no truth for %s@%d", p.spec.Name, tgt)
				}
				pr.ActualPS = int64(tr.time)
				re := report.RelError(float64(pr.PredictedPS), float64(pr.ActualPS))
				pr.RelError = &re
				if tr.bound > bound {
					bound = tr.bound
				}
				fast += tr.fast
				all += tr.all
			}
			resp.Predictions = append(resp.Predictions, pr)
		}
	}
	if p.req.Sampling != nil {
		resp.Sampling = &server.PredictSampling{ErrorBound: bound}
		if all > 0 {
			resp.Sampling.FastFrac = float64(fast) / float64(all)
		}
	}
	return resp, nil
}

// diffResponse compares a served response with the expected one exactly.
func diffResponse(got, want server.PredictResponse) error {
	switch {
	case got.Tier != want.Tier:
		return fmt.Errorf("tier %q, want %q", got.Tier, want.Tier)
	case got.Bench != want.Bench || got.BaseMHz != want.BaseMHz:
		return fmt.Errorf("answered %s@%d, want %s@%d", got.Bench, got.BaseMHz, want.Bench, want.BaseMHz)
	case got.BaseTimePS != want.BaseTimePS:
		return fmt.Errorf("base_time_ps %d, want %d", got.BaseTimePS, want.BaseTimePS)
	case len(got.Predictions) != len(want.Predictions):
		return fmt.Errorf("%d predictions, want %d", len(got.Predictions), len(want.Predictions))
	case (got.Sampling == nil) != (want.Sampling == nil):
		return fmt.Errorf("sampling annotation present %v, want %v", got.Sampling != nil, want.Sampling != nil)
	case got.Sampling != nil && *got.Sampling != *want.Sampling:
		return fmt.Errorf("sampling annotation %+v, want %+v", *got.Sampling, *want.Sampling)
	}
	for i, g := range got.Predictions {
		w := want.Predictions[i]
		if g.Model != w.Model || g.TargetMHz != w.TargetMHz || g.PredictedPS != w.PredictedPS || g.ActualPS != w.ActualPS ||
			(g.RelError == nil) != (w.RelError == nil) || (g.RelError != nil && *g.RelError != *w.RelError) {
			return fmt.Errorf("prediction %d (%s@%d): got %d/%d, want %d/%d", i, w.Model, w.TargetMHz, g.PredictedPS, g.ActualPS, w.PredictedPS, w.ActualPS)
		}
	}
	return nil
}

// checkTier0 checks a surrogate answer against full-detail truth within
// the surrogate's accuracy gate.
func checkTier0(got server.PredictResponse, p planReq, truths map[units.Freq]truthRec) error {
	if got.Bench != p.spec.Name || got.BaseMHz != p.req.BaseMHz || len(got.Predictions) != len(p.req.TargetsMHz) {
		return fmt.Errorf("surrogate answer has the wrong shape")
	}
	if err := checkWithin("surrogate base_time_ps", got.BaseTimePS, int64(truths[units.Freq(p.req.BaseMHz)].time), surrogateTolerance); err != nil {
		return err
	}
	for i, pr := range got.Predictions {
		tgt := p.req.TargetsMHz[i]
		if pr.TargetMHz != tgt || pr.Model != "dep+burst" {
			return fmt.Errorf("surrogate prediction %d is for %s@%d, want dep+burst@%d", i, pr.Model, pr.TargetMHz, tgt)
		}
		if err := checkWithin(fmt.Sprintf("surrogate predicted_ps@%d", tgt), pr.PredictedPS, int64(truths[units.Freq(tgt)].time), surrogateTolerance); err != nil {
			return err
		}
	}
	return nil
}

// verdict judges one served body for request p.
func (o *oracle) verdict(p planReq, body string) error {
	var got server.PredictResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	k := specKey(p.spec)
	if got.Tier == server.TierSurrogate {
		if p.class != classTier0 {
			return fmt.Errorf("surrogate answered a request it must not")
		}
		return checkTier0(got, p, o.full[k])
	}
	want, err := o.expected(p)
	if err != nil {
		return err
	}
	if err := diffResponse(got, want); err != nil {
		return err
	}
	if p.req.Sampling != nil {
		full := o.full[k][units.Freq(p.req.BaseMHz)]
		return checkSampled(p.spec.Name, units.Freq(p.req.BaseMHz), units.Time(got.BaseTimePS), got.Sampling.ErrorBound, full.time)
	}
	return nil
}

// judge returns, per planned request, the verdict on each distinct body it
// received.
func (o *oracle) judge(plan []planReq, resp *responses) [][]error {
	out := make([][]error, len(plan))
	for i, p := range plan {
		for _, body := range resp.bodies[i] {
			out[i] = append(out[i], o.verdict(p, body))
		}
	}
	return out
}

// expectedSims is how many simulations the serving Runner must run: one
// per request that simulates.
func (o *oracle) expectedSims(plan []planReq) int64 {
	var n int64
	for _, p := range plan {
		if p.class.simulates() {
			n++
		}
	}
	return n
}

// simulatedInstrs sums the committed instructions of the simulations the
// plan causes.
func (o *oracle) simulatedInstrs(plan []planReq) int64 {
	var n int64
	for _, p := range plan {
		if !p.class.simulates() {
			continue
		}
		k := specKey(p.spec)
		truths := o.full[k]
		if p.req.Sampling != nil {
			truths = o.sampled[k]
		}
		n += truths[units.Freq(p.req.BaseMHz)].instrs
	}
	return n
}

// actualMAE is the DEP+BURST mean absolute error, in percent, over the
// distinct (spec, target) pairs the actual:true requests cover.
func (o *oracle) actualMAE(plan []planReq) float64 {
	var errs []float64
	seen := make(map[string]bool)
	dep := core.NewDEPBurst()
	for _, p := range plan {
		if p.class != classActual {
			continue
		}
		truths := o.full[specKey(p.spec)]
		base := truths[units.Freq(p.req.BaseMHz)]
		for _, tgt := range p.req.TargetsMHz {
			id := fmt.Sprintf("%s@%d", p.spec.Name, tgt)
			if seen[id] {
				continue
			}
			seen[id] = true
			pred := dep.Predict(base.obs, units.Freq(tgt))
			errs = append(errs, report.RelError(float64(pred), float64(truths[units.Freq(tgt)].time)))
		}
	}
	return 100 * report.MeanAbs(errs)
}
