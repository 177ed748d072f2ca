package main

import (
	"fmt"
	"math"

	"depburst/internal/units"
)

// The checks below are the benchmark's oracles. Each compares an output
// of the program against a value computed apart from it, or against a
// property the method must have, and returns a non-nil error naming the
// output when it fails.

// checkMonotone: a workload's truth time must not rise with frequency.
// times is ordered by ascending frequency (1, 2, 3, 4 GHz).
func checkMonotone(bench string, times []units.Time) error {
	for i := 1; i < len(times); i++ {
		if times[i] > times[i-1] {
			return fmt.Errorf("%s: truth time rises with frequency: %d ps at step %d after %d ps", bench, times[i], i, times[i-1])
		}
	}
	return nil
}

// checkInstrs: a run must commit at least the instructions its spec
// describes.
func checkInstrs(bench string, f units.Freq, committed, want int64) error {
	if committed < want {
		return fmt.Errorf("%s@%v: committed %d instructions, spec describes %d", bench, f, committed, want)
	}
	return nil
}

// checkModelOrder: DEP+BURST must predict better than M+CRIT (the paper's
// Figure 1 claim) at every target.
func checkModelOrder(target units.Freq, depBurstErr, mcritErr float64) error {
	if !(depBurstErr < mcritErr) {
		return fmt.Errorf("target %v: DEP+BURST mean abs error %.4f not below M+CRIT's %.4f", target, depBurstErr, mcritErr)
	}
	return nil
}

// checkManaged: an energy-managed run must use less energy than the
// always-4-GHz run and must not finish before it.
func checkManaged(bench string, threshold float64, energy, refEnergy units.Energy, t, refT units.Time) error {
	if !(energy < refEnergy) {
		return fmt.Errorf("%s@%.0f%%: managed energy %d not below the 4 GHz run's %d", bench, 100*threshold, energy, refEnergy)
	}
	if t < refT {
		return fmt.Errorf("%s@%.0f%%: managed run %d ps faster than the 4 GHz run's %d ps", bench, 100*threshold, t, refT)
	}
	return nil
}

// checkSampled: a sampled completion time must lie within its own reported
// relative error bound of the full-detail time.
func checkSampled(bench string, f units.Freq, sampled units.Time, bound float64, full units.Time) error {
	if full <= 0 {
		return fmt.Errorf("%s@%v: no full-detail reference time", bench, f)
	}
	if e := relErr(float64(sampled), float64(full)); e > bound {
		return fmt.Errorf("%s@%v: sampled time %d ps is %.4f off the full-detail %d ps, outside its bound %.4f", bench, f, sampled, e, full, bound)
	}
	return nil
}

// checkWithin: an estimate must lie within tol (relative) of the value
// computed apart from the program.
func checkWithin(what string, got, want int64, tol float64) error {
	if want <= 0 {
		return fmt.Errorf("%s: no reference value", what)
	}
	if e := relErr(float64(got), float64(want)); e > tol {
		return fmt.Errorf("%s: %d is %.4f off the reference %d, outside tolerance %.4f", what, got, e, want, tol)
	}
	return nil
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}
