package core

import (
	"testing"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/rng"
	"depburst/internal/units"
)

// randomEpochs builds a FuzzPredictEpochs-style stream that also stresses
// the walker's storage: thread IDs are sparse up to a few hundred, a few
// lie outside the dense range (negative or huge), an epoch may repeat a
// thread or carry more slices than the stack buffers hold, counters may
// exceed the active time (exercising the clamps), and the stalled thread
// often has no slice at all.
func randomEpochs(seed uint64) []kernel.Epoch {
	r := rng.New(seed)
	pool := make([]kernel.ThreadID, 1+r.Intn(24))
	for i := range pool {
		switch {
		case seed%3 == 0:
			pool[i] = kernel.ThreadID(i) // dense, as the kernel numbers them
		case r.Bool(0.05):
			pool[i] = []kernel.ThreadID{-7, -2, maxDenseTID - 1, maxDenseTID, 1 << 40}[r.Intn(5)]
		default:
			pool[i] = kernel.ThreadID(r.Intn(400))
		}
	}
	tidOf := func() kernel.ThreadID { return pool[r.Intn(len(pool))] }

	var epochs []kernel.Epoch
	var at units.Time
	for n := 1 + r.Intn(150); n > 0; n-- {
		dur := units.Time(r.Int63n(5000))
		var slices []kernel.ThreadSlice
		k := r.Intn(6)
		if r.Bool(0.02) {
			k = walkerStack + 1 + r.Intn(20)
		}
		for j := 0; j < k; j++ {
			active := units.Time(r.Int63n(int64(dur)+2)) - units.Time(r.Intn(2))
			frac := func() units.Time { return units.Time(r.Int63n(int64(active)*6/5 + 2)) }
			slices = append(slices, kernel.ThreadSlice{
				TID: tidOf(),
				Delta: cpu.Counters{
					Instrs: r.Int63n(10000),
					Active: active,
					CritNS: frac(), LeadNS: frac(), StallNS: frac(), SQFull: frac() / 3,
				},
			})
		}
		stall := kernel.NoThread
		switch r.Intn(4) {
		case 0:
			stall = tidOf()
		case 1:
			stall = kernel.ThreadID(500 + r.Intn(100)) // never had a slice
		case 2:
			if len(slices) > 0 {
				stall = slices[r.Intn(len(slices))].TID
			}
		}
		epochs = append(epochs, kernel.Epoch{Start: at, End: at + dur, StallTID: stall, Slices: slices})
		at += dur
	}
	return epochs
}

// TestWalkerMatchesReference holds every caller of the epoch walker to the
// four loops it replaced, bit for bit, on random streams.
func TestWalkerMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		CheckAgainstReference(t, randomEpochs(uint64(seed)), units.Freq(1000+seed%3*500))
	}
	// The hand-built fixtures of the other tests, and an empty stream.
	CheckAgainstReference(t, breakdownEpochsFixture(), 1000)
	CheckAgainstReference(t, figure2Epochs(), 1000)
	CheckAgainstReference(t, nil, 1000)
}

// denseEpochs is a stream over threads 0..walkerStack-1 whose widest
// epoch has a slice for every thread: the largest stream the walker must
// handle without allocating.
func denseEpochs() []kernel.Epoch {
	r := rng.New(7)
	var epochs []kernel.Epoch
	var at units.Time
	for i := 0; i < 200; i++ {
		dur := units.Time(1 + r.Int63n(3000))
		var slices []kernel.ThreadSlice
		k := 1 + r.Intn(8)
		if i%50 == 0 {
			k = walkerStack
		}
		for j := 0; j < k; j++ {
			tid := kernel.ThreadID(r.Intn(walkerStack))
			if k == walkerStack {
				tid = kernel.ThreadID(j)
			}
			slices = append(slices, kernel.ThreadSlice{TID: tid, Delta: cpu.Counters{
				Active: dur, CritNS: units.Time(r.Int63n(int64(dur))), SQFull: units.Time(r.Int63n(int64(dur)/4 + 1)),
			}})
		}
		epochs = append(epochs, kernel.Epoch{Start: at, End: at + dur, StallTID: slices[0].TID, Slices: slices})
		at += dur
	}
	return epochs
}

func TestPredictEpochsZeroAllocs(t *testing.T) {
	epochs := denseEpochs()
	for _, o := range []Options{{Burst: true}, {Burst: true, PerEpochCTP: true}} {
		if n := testing.AllocsPerRun(20, func() { PredictEpochs(epochs, 1000, 4000, o) }); n != 0 {
			t.Errorf("%+v: PredictEpochs allocates %v times per call, want 0", o, n)
		}
	}
}

func TestSumBreakdownEpochsZeroAllocs(t *testing.T) {
	epochs := denseEpochs()
	if n := testing.AllocsPerRun(20, func() { SumBreakdownEpochs(epochs, 1000, 1000, Options{Burst: true}) }); n != 0 {
		t.Errorf("SumBreakdownEpochs allocates %v times per call, want 0", n)
	}
}

// scanFindPhase is findPhase's former linear scan, the reference for the
// binary search.
func scanFindPhase(cuts []units.Time, t units.Time) int {
	for i := 0; i+1 < len(cuts); i++ {
		if t >= cuts[i] && t < cuts[i+1] {
			return i
		}
	}
	if len(cuts) >= 2 && t >= cuts[len(cuts)-1] {
		return len(cuts) - 2
	}
	return -1
}

// TestFindPhaseMatchesScan checks the binary search against the scan on
// every cut and its neighbours, for cuts from random GC marks, including
// runs whose total is zero or negative.
func TestFindPhaseMatchesScan(t *testing.T) {
	for _, cuts := range [][]units.Time{nil, {5}} {
		if got := findPhase(cuts, 5); got != -1 {
			t.Errorf("cuts %v: findPhase = %d, want -1", cuts, got)
		}
	}
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		obs := &Observation{Total: units.Time(r.Int63n(10000)) - 2000}
		if i%7 == 0 {
			obs.Total = 0
		}
		for n := r.Intn(12); n > 0; n-- {
			label := []string{"gc-start", "gc-end", "other"}[r.Intn(3)]
			obs.Marks = append(obs.Marks, kernel.Mark{At: units.Time(r.Int63n(12000)) - 1000, Label: label})
		}
		cuts, _ := phaseCuts(obs)
		probes := []units.Time{-1 << 40, 1 << 40}
		for _, c := range cuts {
			probes = append(probes, c-1, c, c+1)
		}
		for _, p := range probes {
			if got, want := findPhase(cuts, p), scanFindPhase(cuts, p); got != want {
				t.Fatalf("cuts %v, t=%v: findPhase = %d, scan %d", cuts, p, got, want)
			}
		}
	}
}
