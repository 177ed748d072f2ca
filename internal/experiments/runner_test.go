package experiments

import (
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/kernel"
)

func TestTruthMemoised(t *testing.T) {
	r := NewRunner()
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	a := r.Truth(spec, 1000)
	b := r.Truth(spec, 1000)
	if a != b {
		t.Error("Truth did not memoise (distinct result pointers)")
	}
	c := r.Truth(spec, 2000)
	if c == a {
		t.Error("different frequencies share a cache entry")
	}
	if c.Time >= a.Time {
		t.Errorf("2 GHz run (%v) not faster than 1 GHz run (%v)", c.Time, a.Time)
	}
}

// TestTruthKeyedByContent is the memo's content-variation wall: two specs
// that share a name but not their work must not share a truth. Each answer
// on one Runner must equal a fresh Runner's answer for that spec alone.
func TestTruthKeyedByContent(t *testing.T) {
	small := dacapo.Sunflow().Scaled(0.05)
	big := small
	big.ItemInstrs *= 3
	shared := NewRunner()
	for _, spec := range []dacapo.Spec{small, big} {
		got := shared.Truth(spec, 2000).Time
		if want := NewRunner().Truth(spec, 2000).Time; got != want {
			t.Errorf("%s with ItemInstrs %d: shared Runner %v, fresh Runner %v", spec.Name, spec.ItemInstrs, got, want)
		}
	}
	if n := shared.Simulations(); n != 2 {
		t.Errorf("shared Runner ran %d simulations, want 2", n)
	}
}

func TestObserveMapping(t *testing.T) {
	r := NewRunner()
	spec, _ := dacapo.ByName("pmd.scale")
	res := r.Truth(spec, 1000)
	obs := Observe(res)
	if obs.Base != 1000 || obs.Total != res.Time {
		t.Errorf("observation base/total: %v/%v", obs.Base, obs.Total)
	}
	if len(obs.Threads) != len(res.Threads) {
		t.Errorf("threads %d vs %d", len(obs.Threads), len(res.Threads))
	}
	if len(obs.Epochs) != len(res.Epochs) || len(obs.Marks) != len(res.Marks) {
		t.Error("epochs/marks not carried over")
	}
	apps := 0
	for _, th := range obs.Threads {
		if th.Class == kernel.ClassApp {
			apps++
		}
	}
	if apps != spec.Threads+1 { // workers + main
		t.Errorf("app threads in observation: %d", apps)
	}
}

func TestModelsSet(t *testing.T) {
	ms := Models()
	if len(ms) != 6 {
		t.Fatalf("model set has %d entries, want 6", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name()] = true
	}
	for _, want := range []string{"M+CRIT", "M+CRIT+BURST", "COOP", "COOP+BURST", "DEP", "DEP+BURST"} {
		if !names[want] {
			t.Errorf("missing model %q", want)
		}
	}
}

func TestPredictionErrorIdentity(t *testing.T) {
	r := NewRunner()
	spec, _ := dacapo.ByName("pmd.scale")
	for _, m := range Models() {
		e := r.PredictionError(spec, m, 1000, 1000)
		if e < -0.02 || e > 0.02 {
			t.Errorf("%s: identity prediction error %.2f%%", m.Name(), e*100)
		}
	}
}
