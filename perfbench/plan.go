package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/rng"
	"depburst/internal/sampling"
	"depburst/internal/server"
)

// serveScale multiplies the stock specs' work for serve-mix's training
// corpus and its stock-name requests; coldScale sizes its cold inline
// specs, so that simulation stays a minority of the round's host time.
const (
	serveScale = 0.25
	coldScale  = 0.1
)

// Request-plan make-up per round (see README.md).
const (
	planTier0  = 6000 // default-model requests for corpus specs: surrogate answers
	planReplay = 2000 // multi-model requests for corpus specs: disk, then memo
	planActual = 400  // actual:true requests for corpus specs: disk, then memo
)

// reqClass is how a planned request is expected to be answered.
type reqClass int

const (
	classTier0     reqClass = iota // learned surrogate
	classReplay                    // Runner memo or disk, several models
	classActual                    // Runner memo or disk, with ground truth
	classCold                      // full-detail simulation
	classSampled                   // sampled simulation
	classAliasBase                 // full-detail simulation of an aliased name's first content
	classAlias                     // same name, other content: memo aliasing answers it
)

// simulates reports whether the class's request runs a simulation.
func (c reqClass) simulates() bool {
	return c == classCold || c == classSampled || c == classAliasBase
}

// replays reports whether the Runner answers the class's request from its
// memo or the disk cache without simulating.
func (c reqClass) replays() bool { return c == classReplay || c == classActual }

// planReq is one request of the plan with the inputs the oracle needs.
type planReq struct {
	class reqClass
	phase int
	req   server.PredictRequest
	spec  dacapo.Spec // the workload the request names, resolved
	body  []byte
}

// Model wire names, in the server's canonical order.
var wireModels = []string{"mcrit", "mcrit+burst", "coop", "coop+burst", "dep", "dep+burst"}

// aliasedSpecs are the fixed same-name pairs: the first content is
// requested in the cold phase, the second (three times the instructions
// per item, same name) in the last phase. They do not depend on the seed.
func aliasedSpecs() [][2]dacapo.Spec {
	var out [][2]dacapo.Spec
	for _, s := range []dacapo.Spec{dacapo.Sunflow(), dacapo.Xalan()} {
		base := s.Scaled(coldScale)
		base.Name = "alias-" + s.Name
		other := base
		other.ItemInstrs *= 3
		out = append(out, [2]dacapo.Spec{base, other})
	}
	return out
}

// buildPlan generates one round's requests from the seed. Phases run in
// order with a barrier between them; within a phase, requests keep their
// generated order and go to whichever client is free.
func buildPlan(seed uint64) ([]planReq, error) {
	r := rng.New(seed)
	corpus := scaledSuite(serveScale)
	pick := func() dacapo.Spec { return corpus[r.Intn(len(corpus))] }
	targets := func(exclude int64) []int64 {
		for {
			var out []int64
			for _, f := range experiments.EvalFreqs {
				if int64(f) != exclude && r.Bool(0.5) {
					out = append(out, int64(f))
				}
			}
			if len(out) > 0 {
				return out
			}
		}
	}
	var plan []planReq
	add := func(class reqClass, phase int, spec dacapo.Spec, inline bool, req server.PredictRequest) {
		if inline {
			s := spec
			req.Spec = &s
		} else {
			req.Bench = spec.Name
		}
		if req.BaseMHz == 0 {
			req.BaseMHz = 1000
		}
		plan = append(plan, planReq{class: class, phase: phase, req: req, spec: spec})
	}

	for i := 0; i < planTier0; i++ {
		add(classTier0, 0, pick(), false, server.PredictRequest{TargetsMHz: targets(1000)})
	}
	for i := 0; i < planReplay; i++ {
		base := int64(1000 + 1000*r.Intn(2))
		var models []string
		for len(models) < 2 {
			models = models[:0]
			for _, m := range wireModels {
				if r.Bool(0.4) {
					models = append(models, m)
				}
			}
		}
		add(classReplay, 1, pick(), false, server.PredictRequest{BaseMHz: base, TargetsMHz: targets(base), Models: models})
	}
	perm := r.Perm(len(corpus))
	for i := 0; i < planActual; i++ {
		spec := pick()
		if i < len(corpus) {
			spec = corpus[perm[i]] // every corpus spec at least once
		}
		add(classActual, 2, spec, false, server.PredictRequest{
			TargetsMHz: []int64{2000, 3000, 4000}, Models: []string{"dep+burst", "mcrit"}, Actual: true,
		})
	}
	// Each cold group holds every stock spec once under a name the seed
	// assigns, with its work per item varied by at most 2%: the contents
	// (and so the cache keys) change with the seed, the amount of
	// simulation hardly does.
	stock := dacapo.Suite()
	coldGroup := func(class reqClass, prefix string, sampled bool) {
		for i, k := range r.Perm(len(stock)) {
			s := stock[k].Scaled(coldScale)
			s.Name = fmt.Sprintf("%s-%d", prefix, i)
			s.ItemInstrs = int64(math.Round(float64(s.ItemInstrs) * (0.98 + 0.04*r.Float64())))
			req := server.PredictRequest{TargetsMHz: []int64{2000, 3000, 4000}}
			if sampled {
				p := sampling.DefaultPolicy()
				req.Sampling = &p
			}
			add(class, 3, s, true, req)
		}
	}
	coldGroup(classCold, "cold", false)
	coldGroup(classSampled, "cold-sampled", true)
	for _, pair := range aliasedSpecs() {
		add(classAliasBase, 3, pair[0], true, server.PredictRequest{TargetsMHz: []int64{2000, 3000, 4000}})
	}
	// Largest first, so that the two clients finish the phase together.
	cold := plan[len(plan)-2*len(stock)-len(aliasedSpecs()):]
	sort.SliceStable(cold, func(i, j int) bool {
		return cold[i].spec.TotalInstrs() > cold[j].spec.TotalInstrs()
	})
	for _, pair := range aliasedSpecs() {
		add(classAlias, 4, pair[1], true, server.PredictRequest{TargetsMHz: []int64{2000, 3000, 4000}})
	}

	for i := range plan {
		b, err := json.Marshal(plan[i].req)
		if err != nil {
			return nil, err
		}
		plan[i].body = b
	}
	return plan, nil
}

// phases splits the plan into its phases, as index lists.
func phases(plan []planReq) [][]int {
	var out [][]int
	for i, p := range plan {
		for len(out) <= p.phase {
			out = append(out, nil)
		}
		out[p.phase] = append(out[p.phase], i)
	}
	return out
}
