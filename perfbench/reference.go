package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// referenceJSON is the full-detail truth table sim-sampled is checked
// against. Regenerate it after any change to simulator output with
//
//	go run ./perfbench --write-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// referenceSchema names the reference file layout.
const referenceSchema = "perfbench-reference/1"

// referenceDoc is the reference file: one full-detail completion time per
// (spec, frequency) of the sim-sampled matrix, each with the content key
// of the machine configuration and spec that produced it, so a table made
// for other inputs is refused instead of silently compared.
type referenceDoc struct {
	Schema  string           `json:"schema"`
	Scale   float64          `json:"scale"`
	Entries []referenceEntry `json:"entries"`
}

type referenceEntry struct {
	Bench   string `json:"bench"`
	FreqMHz int64  `json:"freq_mhz"`
	Key     string `json:"key"`
	TimePS  int64  `json:"time_ps"`
}

// reference is the decoded table, indexed like a round's truth matrix.
type reference struct {
	times [][]units.Time // [spec][EvalFreqs index]
}

// referenceKey is the content address of one full-detail truth run's
// inputs: the machine configuration at f with the spec's JVM sizing, and
// the spec.
func referenceKey(spec dacapo.Spec, f units.Freq) (string, error) {
	cfg := sim.DefaultConfig()
	cfg.Freq = f
	spec.Configure(&cfg)
	return simcache.Key(cfg, spec)
}

// loadReference decodes the embedded table and matches it to specs.
func loadReference(specs []dacapo.Spec) (*reference, error) {
	return parseReference(referenceJSON, specs)
}

func parseReference(raw []byte, specs []dacapo.Spec) (*reference, error) {
	var doc referenceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	if doc.Schema != referenceSchema {
		return nil, fmt.Errorf("reference table: schema %q, want %q", doc.Schema, referenceSchema)
	}
	ref := &reference{times: make([][]units.Time, len(specs))}
	for s, spec := range specs {
		ref.times[s] = make([]units.Time, len(experiments.EvalFreqs))
		for fi, f := range experiments.EvalFreqs {
			key, err := referenceKey(spec, f)
			if err != nil {
				return nil, err
			}
			found := false
			for _, e := range doc.Entries {
				if e.Bench == spec.Name && e.FreqMHz == int64(f) {
					if e.Key != key {
						return nil, fmt.Errorf("reference table: %s@%v was made for other inputs; regenerate it with --write-reference", spec.Name, f)
					}
					ref.times[s][fi] = units.Time(e.TimePS)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("reference table: no entry for %s@%v; regenerate it with --write-reference", spec.Name, f)
			}
		}
	}
	return ref, nil
}

// writeReference simulates the sim-sampled matrix in full detail on a
// fresh Runner and writes the table to path.
func writeReference(path string) error {
	specs := simSampledConfig().specs()
	r := experiments.NewRunnerWorkers(clients)
	r.Prewarm(specs, experiments.EvalFreqs...)
	doc := referenceDoc{Schema: referenceSchema, Scale: sampledScale}
	for _, spec := range specs {
		for _, f := range experiments.EvalFreqs {
			key, err := referenceKey(spec, f)
			if err != nil {
				return err
			}
			doc.Entries = append(doc.Entries, referenceEntry{
				Bench: spec.Name, FreqMHz: int64(f), Key: key, TimePS: int64(r.Truth(spec, f).Time),
			})
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
