package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runLine is the result line one benchmark process prints last.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// repeatRuns reruns the workload n times, each in a fresh process with the
// next seed, and prints every metric's median, quartiles and spread (the
// quartile distance as a share of the median).
func repeatRuns(workload string, seed uint64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShare []float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rl runLine
		if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !rl.Correct {
			return fmt.Errorf("seed %d: incorrect output", s)
		}
		failedShare = append(failedShare, float64(rl.Failed)/float64(rl.Attempted))
		for name, m := range rl.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat %d/%d (seed %d): %s\n", i+1, n, s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, failed share %v\n", workload, n, seed, seed+uint64(n)-1, failedShare)
	fmt.Printf("%-34s %-9s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-9s %14.6g %14.6g %14.6g %7.1f%%\n", name, units[name], med, q1, q3, 100*spread)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), so spreads printed here are the ones a reader gets
// from the recorded values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
