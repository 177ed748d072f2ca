package core

import (
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// EpochBreakdown decomposes one epoch's DEP prediction at the target
// frequency into the components the model reasons about: the critical
// thread's frequency-scaling pipeline time, its non-scaling memory time
// (the engine's CRIT/LL/STALL estimate), its non-scaling store-burst time
// (the +BURST addend), and an idle remainder.
//
// The components satisfy Pipeline + Memory + Burst + Idle == Pred for
// every epoch, so the whole-stream sums decompose the total prediction
// exactly. In across-epoch mode Idle folds in the slack carried by
// Algorithm 1's delta counters and may be negative for a single epoch
// (the critical thread absorbed wait time banked earlier); for an idle
// epoch (no thread ran) the full duration lands in Idle.
type EpochBreakdown struct {
	Start  units.Time // epoch start (base-frequency timeline)
	Dur    units.Time // measured duration at the base frequency
	Pred   units.Time // predicted duration at the target frequency
	Instrs int64      // instructions committed by all threads in the epoch

	Pipeline units.Time // scaling component, rescaled to target
	Memory   units.Time // non-scaling engine component (CRIT/LL/STALL)
	Burst    units.Time // non-scaling store-queue-full component
	Idle     units.Time // remainder: idle epochs and carried slack
}

// SumBreakdownEpochs aggregates BreakdownEpochs' component attribution
// without materialising per-epoch entries: the summed pipeline, memory,
// burst and idle components and the total prediction over the epoch
// slice. It always uses per-epoch critical-thread prediction (o.PerEpochCTP
// is forced). It is allocation-free, so the sampling detector can
// fingerprint every quantum from it on the per-quantum hot path.
func SumBreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) (pipeline, memory, burst, idle, pred units.Time) {
	o.PerEpochCTP = true
	walkEpochs(epochs, base, target, o, func(_ *kernel.Epoch, crit *kernel.ThreadSlice, p units.Time) {
		pl, m, b, i := attribute(crit, p, base, target, o)
		pipeline += pl
		memory += m
		burst += b
		idle += i
		pred += p
	})
	return pipeline, memory, burst, idle, pred
}

// BreakdownEpochs runs the same aggregation as PredictEpochs but keeps
// per-epoch component attributions instead of only the total. The sum of
// the returned Pred fields equals PredictEpochs on the same inputs.
func BreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) []EpochBreakdown {
	out := make([]EpochBreakdown, 0, len(epochs))
	walkEpochs(epochs, base, target, o, func(ep *kernel.Epoch, crit *kernel.ThreadSlice, pred units.Time) {
		b := EpochBreakdown{Start: ep.Start, Dur: ep.Duration(), Pred: pred}
		for j := range ep.Slices {
			b.Instrs += ep.Slices[j].Delta.Instrs
		}
		b.Pipeline, b.Memory, b.Burst, b.Idle = attribute(crit, pred, base, target, o)
		out = append(out, b)
	})
	return out
}

// attribute splits an epoch's prediction pred into its critical slice's
// two-component law, with the +BURST addend apart, and lets idle carry
// whatever slack adjustment moved pred off the raw estimate, so the four
// always sum to pred. An idle epoch (crit nil) is idle throughout.
func attribute(crit *kernel.ThreadSlice, pred units.Time, base, target units.Freq, o Options) (pipeline, memory, burst, idle units.Time) {
	if crit == nil {
		return 0, 0, 0, pred
	}
	c := &crit.Delta
	ns := nonScaling(c, c.Active, o)
	memory = ns
	if o.Burst {
		memory = nonScaling(c, c.Active, Options{Engine: o.Engine})
		burst = ns - memory
	}
	pipeline = scaleTime(c.Active-ns, base, target)
	return pipeline, memory, burst, pred - (pipeline + memory + burst)
}
