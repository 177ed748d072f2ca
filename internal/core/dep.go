package core

import (
	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// DEP is the paper's predictor (§III): execution is decomposed into
// synchronization epochs at every futex sleep and wake; each active
// thread's duration within an epoch is predicted with the per-thread
// engine; and the epoch's duration at the target frequency is that of the
// critical thread — tracked either per epoch or across epochs with delta
// counters (Algorithm 1). With Options.Burst it is the full DEP+BURST
// model.
type DEP struct {
	Opts Options
}

// NewDEP returns a DEP model with the given options.
func NewDEP(o Options) *DEP { return &DEP{Opts: o} }

// NewDEPBurst returns the paper's headline DEP+BURST model.
func NewDEPBurst() *DEP { return &DEP{Opts: Options{Burst: true}} }

// Name implements Model.
func (d *DEP) Name() string {
	n := "DEP" + d.Opts.suffix()
	if d.Opts.PerEpochCTP {
		n += "(per-epoch)"
	}
	return n
}

// Predict implements Model.
func (d *DEP) Predict(obs *Observation, target units.Freq) units.Time {
	return PredictEpochs(obs.Epochs, obs.Base, target, d.Opts)
}

// PredictEpochs runs DEP's epoch aggregation over an epoch stream,
// predicting the stream's total duration at the target frequency. It is
// exported separately because the energy manager applies it to the epochs
// of a single scheduling quantum.
func PredictEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	var total units.Time
	walkEpochs(epochs, base, target, o, func(_ *kernel.Epoch, _ *kernel.ThreadSlice, pred units.Time) {
		total += pred
	})
	return total
}

// PredictAggregate predicts an interval's duration at the target frequency
// from aggregate counters alone (no epoch structure), the fallback for
// intervals without synchronization activity: all threads ran
// independently, so the interval scales like its per-core average.
func PredictAggregate(c cpu.Counters, base, target units.Freq, o Options) units.Time {
	return predictThread(c.Active, &c, o, base, target)
}

// walkerStack is how many threads, and slices per epoch, walkEpochs covers
// from stack buffers. The kernel numbers threads densely from 0, so a
// stream of up to this many threads is walked without allocating.
const walkerStack = 64

// maxDenseTID bounds the slice that holds Algorithm 1's delta counters.
// Thread IDs outside [0, maxDenseTID), which only hand-built or decoded
// observations carry, keep their delta counter in a map instead.
const maxDenseTID = 1 << 16

// walkEpochs is DEP's one implementation of critical-thread prediction.
// It calls visit once per epoch, in stream order, with the epoch's
// predicted duration at the target frequency and its critical slice: the
// first slice with the largest (slack-adjusted) estimate. An idle epoch (no
// thread ran) is scheduler/timer time that does not scale: its prediction
// is its measured duration and crit is nil.
//
// With o.PerEpochCTP each epoch lasts as long as its slowest predicted
// thread (Figure 2(c)). Otherwise it runs Algorithm 1: per-thread delta
// counters carry slack across epochs, so a thread that finished early in
// one epoch (and waited) correctly absorbs that wait when it becomes
// critical later; the thread whose sleep closed the epoch has no carried
// slack, so its delta resets.
func walkEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options, visit func(ep *kernel.Epoch, crit *kernel.ThreadSlice, pred units.Time)) {
	var deltaBuf, estBuf [walkerStack]units.Time
	delta := slack{dense: deltaBuf[:]}
	est := estBuf[:]
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			visit(ep, nil, ep.Duration())
			continue
		}
		if len(ep.Slices) > len(est) {
			est = make([]units.Time, len(ep.Slices))
		}
		// Lines 1-5: each thread's estimate minus its carried slack;
		// the epoch lasts as long as the largest, clamped at 0.
		crit, pred := 0, units.Time(0)
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			est[j] = a
			if !o.PerEpochCTP {
				a -= *delta.at(sl.TID)
			}
			if j == 0 || a > pred {
				crit, pred = j, a
			}
		}
		if pred < 0 {
			pred = 0
		}
		visit(ep, &ep.Slices[crit], pred)
		if o.PerEpochCTP {
			continue
		}
		// Lines 6-8: update slack for every active thread.
		for j := range ep.Slices {
			*delta.at(ep.Slices[j].TID) += pred - est[j]
		}
		// Line 9: the stalled thread slept, so its next epoch starts
		// fresh.
		if ep.StallTID != kernel.NoThread {
			delta.reset(ep.StallTID)
		}
	}
}

// slack holds Algorithm 1's per-thread delta counters, indexed by thread
// ID; a thread never seen has a zero counter.
type slack struct {
	dense  []units.Time
	sparse map[kernel.ThreadID]*units.Time // IDs outside [0, maxDenseTID)
}

// at returns tid's delta counter, growing the store to hold it.
func (s *slack) at(tid kernel.ThreadID) *units.Time {
	if uint(tid) < uint(len(s.dense)) {
		return &s.dense[tid]
	}
	if tid >= 0 && tid < maxDenseTID {
		n := min(2*len(s.dense), maxDenseTID)
		n = max(n, int(tid)+1)
		grown := make([]units.Time, n)
		copy(grown, s.dense)
		s.dense = grown
		return &s.dense[tid]
	}
	if s.sparse == nil {
		s.sparse = make(map[kernel.ThreadID]*units.Time)
	}
	p := s.sparse[tid]
	if p == nil {
		p = new(units.Time)
		s.sparse[tid] = p
	}
	return p
}

// reset zeroes tid's delta counter, which may belong to a thread that
// never had a slice.
func (s *slack) reset(tid kernel.ThreadID) {
	if uint(tid) < uint(len(s.dense)) {
		s.dense[tid] = 0
	} else if p := s.sparse[tid]; p != nil {
		*p = 0
	}
}
