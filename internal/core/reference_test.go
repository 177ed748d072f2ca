package core

import (
	"reflect"
	"testing"

	"depburst/internal/kernel"
	"depburst/internal/units"
)

// This file keeps the four epoch-aggregation loops DEP used before they
// were folded into walkEpochs: the same code with comments dropped,
// renamed, and passing the counters by pointer. They are the reference the
// differential tests hold the walker to, bit for bit.

func refPredictEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	if o.PerEpochCTP {
		return refPredictPerEpoch(epochs, base, target, o)
	}
	return refPredictAcrossEpochs(epochs, base, target, o)
}

func refPredictPerEpoch(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	var total units.Time
	for i := range epochs {
		ep := &epochs[i]
		var worst units.Time
		for _, sl := range ep.Slices {
			p := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			if p > worst {
				worst = p
			}
		}
		if len(ep.Slices) == 0 {
			worst = ep.Duration()
		}
		total += worst
	}
	return total
}

func refPredictAcrossEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	delta := make(map[kernel.ThreadID]units.Time)
	var total units.Time
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			total += ep.Duration()
			continue
		}
		var iPrime units.Time
		first := true
		for _, sl := range ep.Slices {
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			e := a - delta[sl.TID]
			if first || e > iPrime {
				iPrime = e
				first = false
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}
		total += iPrime
		for _, sl := range ep.Slices {
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			delta[sl.TID] += iPrime - a
		}
		if ep.StallTID != kernel.NoThread {
			delta[ep.StallTID] = 0
		}
	}
	return total
}

func refSumBreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) (pipeline, memory, burst, idle, pred units.Time) {
	o.PerEpochCTP = true
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			d := ep.Duration()
			idle += d
			pred += d
			continue
		}
		var iPrime units.Time
		var crit kernel.ThreadSlice
		first := true
		for _, sl := range ep.Slices {
			e := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			if first || e > iPrime {
				iPrime = e
				crit = sl
				first = false
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}
		ns := nonScaling(&crit.Delta, crit.Delta.Active, o)
		m := ns
		if o.Burst {
			m = nonScaling(&crit.Delta, crit.Delta.Active, Options{Engine: o.Engine})
			burst += ns - m
		}
		memory += m
		p := scaleTime(crit.Delta.Active-ns, base, target)
		pipeline += p
		pred += iPrime
		idle += iPrime - (p + m + (ns - m))
	}
	return pipeline, memory, burst, idle, pred
}

func refBreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) []EpochBreakdown {
	out := make([]EpochBreakdown, 0, len(epochs))
	delta := make(map[kernel.ThreadID]units.Time)
	for i := range epochs {
		ep := &epochs[i]
		b := EpochBreakdown{Start: ep.Start, Dur: ep.Duration()}
		for _, sl := range ep.Slices {
			b.Instrs += sl.Delta.Instrs
		}
		if len(ep.Slices) == 0 {
			b.Pred = ep.Duration()
			b.Idle = b.Pred
			out = append(out, b)
			continue
		}
		var iPrime units.Time
		var crit kernel.ThreadSlice
		first := true
		for _, sl := range ep.Slices {
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			e := a
			if !o.PerEpochCTP {
				e -= delta[sl.TID]
			}
			if first || e > iPrime {
				iPrime = e
				crit = sl
				first = false
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}
		ns := nonScaling(&crit.Delta, crit.Delta.Active, o)
		mem := ns
		if o.Burst {
			mem = nonScaling(&crit.Delta, crit.Delta.Active, Options{Engine: o.Engine})
			b.Burst = ns - mem
		}
		b.Memory = mem
		b.Pipeline = scaleTime(crit.Delta.Active-ns, base, target)
		b.Pred = iPrime
		b.Idle = iPrime - (b.Pipeline + b.Memory + b.Burst)
		out = append(out, b)
		if !o.PerEpochCTP {
			for _, sl := range ep.Slices {
				a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
				delta[sl.TID] += iPrime - a
			}
			if ep.StallTID != kernel.NoThread {
				delta[ep.StallTID] = 0
			}
		}
	}
	return out
}

// allOptions is every engine, with and without BURST, in both CTP modes.
func allOptions() []Options {
	var out []Options
	for _, e := range []Engine{CRIT, LeadingLoads, StallTime} {
		for _, burst := range []bool{false, true} {
			for _, per := range []bool{false, true} {
				out = append(out, Options{Engine: e, Burst: burst, PerEpochCTP: per})
			}
		}
	}
	return out
}

// CheckAgainstReference fails t unless PredictEpochs, BreakdownEpochs and
// SumBreakdownEpochs agree exactly with the reference loops on epochs, for
// every engine, ±BURST, both CTP modes, and targets below, at and above
// base. It is exported to the external test package through this _test
// file so that simulated streams can be checked too.
func CheckAgainstReference(t *testing.T, epochs []kernel.Epoch, base units.Freq) {
	t.Helper()
	targets := []units.Freq{base / 2, base, base * 2, base * 4, base*3 + 7}
	for _, o := range allOptions() {
		for _, target := range targets {
			if got, want := PredictEpochs(epochs, base, target, o), refPredictEpochs(epochs, base, target, o); got != want {
				t.Fatalf("%+v %v->%v: PredictEpochs = %d, reference %d", o, base, target, got, want)
			}
			if got, want := BreakdownEpochs(epochs, base, target, o), refBreakdownEpochs(epochs, base, target, o); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %v->%v: BreakdownEpochs differs from the reference", o, base, target)
			}
			var got, want [5]units.Time
			got[0], got[1], got[2], got[3], got[4] = SumBreakdownEpochs(epochs, base, target, o)
			want[0], want[1], want[2], want[3], want[4] = refSumBreakdownEpochs(epochs, base, target, o)
			if got != want {
				t.Fatalf("%+v %v->%v: SumBreakdownEpochs = %v, reference %v", o, base, target, got, want)
			}
		}
	}
}
