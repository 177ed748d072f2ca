package core_test

import (
	"testing"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/kernel"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// simBase is the frequency the simulated epoch streams are recorded at.
const simBase units.Freq = 1000

// simulate returns the epoch stream of spec run at simBase.
func simulate(tb testing.TB, spec dacapo.Spec) []kernel.Epoch {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Freq = simBase
	spec.Configure(&cfg)
	res, err := sim.New(cfg).Run(dacapo.New(spec))
	if err != nil {
		tb.Fatalf("%s: %v", spec.Name, err)
	}
	if len(res.Epochs) == 0 {
		tb.Fatalf("%s: simulation recorded no epochs", spec.Name)
	}
	return res.Epochs
}

// TestWalkerMatchesReferenceOnSimulation holds the epoch walker to the
// loops it replaced on real kernel epoch streams: a memory-intensive
// benchmark (frequent GC, many short epochs), a lock-bound one, and a
// compute-bound one.
func TestWalkerMatchesReferenceOnSimulation(t *testing.T) {
	for _, spec := range []dacapo.Spec{
		dacapo.Xalan().Scaled(0.1), dacapo.Lusearch().Scaled(0.1), dacapo.Sunflow().Scaled(0.1),
	} {
		core.CheckAgainstReference(t, simulate(t, spec), simBase)
	}
}

var sinkTime units.Time

// BenchmarkEpochPrediction times Algorithm 1 epoch prediction (the
// per-quantum and replay cost of DEP+BURST) over a simulated run's whole
// epoch stream: across-epoch and per-epoch CTP, and the sampling
// detector's component sums. The stream is xalan's at its stock size.
func BenchmarkEpochPrediction(b *testing.B) {
	epochs := simulate(b, dacapo.Xalan())
	for _, bc := range []struct {
		name string
		fn   func() units.Time
	}{
		{"across", func() units.Time { return core.PredictEpochs(epochs, simBase, 4000, core.Options{Burst: true}) }},
		{"per-epoch", func() units.Time {
			return core.PredictEpochs(epochs, simBase, 4000, core.Options{Burst: true, PerEpochCTP: true})
		}},
		{"sum-breakdown", func() units.Time {
			_, _, _, _, pred := core.SumBreakdownEpochs(epochs, simBase, simBase, core.Options{Burst: true})
			return pred
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTime += bc.fn()
			}
		})
	}
}
