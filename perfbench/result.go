package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome: the operations it attempted and failed,
// whether every operation that did not fail produced a correct output, and
// the metrics in print order.
type result struct {
	attempted, failed int
	problems          []string // check failures beyond the expected ones
	metrics           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// problem records a check failure that makes the run incorrect.
func (r *result) problem(msg string) { r.problems = append(r.problems, msg) }

// line renders the result as the single JSON line the benchmark prints
// last. Metrics keep their insertion order; floats print with every digit
// they carry.
func (r *result) line() []byte {
	var b strings.Builder
	b.WriteString(`{"correct": `)
	b.WriteString(strconv.FormatBool(len(r.problems) == 0))
	b.WriteString(`, "attempted": `)
	b.WriteString(strconv.Itoa(r.attempted))
	b.WriteString(`, "failed": `)
	b.WriteString(strconv.Itoa(r.failed))
	b.WriteString(`, "metrics": {`)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Quote(m.name))
		b.WriteString(`: {"value": `)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteString(`, "unit": `)
		b.WriteString(strconv.Quote(m.unit))
		b.WriteString("}")
	}
	b.WriteString("}}\n")
	return []byte(b.String())
}

// now reads the host clock. Every duration the benchmark reports is host
// time by definition, so this is the one sanctioned wall-clock read.
func now() time.Time {
	return time.Now() //depburst:allow determinism -- the benchmark measures host time; nothing it reads feeds program output
}

// secondsSince is the host time elapsed since t, in seconds.
func secondsSince(t time.Time) float64 { return now().Sub(t).Seconds() }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage snapshots the host resources a span of work consumes.
type usage struct {
	wall  time.Time
	cpu   float64
	steal float64
	alloc uint64
	gcs   uint32
	pause uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: now(), cpu: cpuSeconds(), steal: stealSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pause: ms.PauseTotalNs}
}

// spent is the resource use between two snapshots.
type spent struct {
	wallS, cpuS, allocMB float64
	gcs                  int
	pauseMS, stealS      float64
}

func (u usage) until(v usage) spent {
	return spent{
		wallS:   v.wall.Sub(u.wall).Seconds(),
		cpuS:    v.cpu - u.cpu,
		allocMB: float64(v.alloc-u.alloc) / (1 << 20),
		gcs:     int(v.gcs - u.gcs),
		pauseMS: float64(v.pause-u.pause) / 1e6,
		stealS:  v.steal - u.steal,
	}
}

// retainedHeapMB forces a collection and reports the live heap. Callers
// keep the state they want counted reachable across the call.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// endToEnd gathers one run's end-to-end figures over its rounds. Every
// workload reports the same metrics, each the median over the run's rounds
// of the round's figure; a round's latency figure is the median over its
// operations of that class. Taking the round's median first keeps the
// figure from depending on how many rounds the run fitted in, where one
// class mixes operations of very different sizes.
type endToEnd struct {
	setup, wall, cpu, alloc, heap, mips, rps []float64
	miss, replay                             []float64 // seconds, one per round
	maePct                                   float64
}

// addRound records one round: its set-up time, resource use, retained
// heap, simulated instructions, operation count, and the latencies of its
// operations that simulated (miss) and that the Runner answered without
// simulating (replay).
func (e *endToEnd) addRound(setupS float64, use spent, retainedMB float64, instrs int64, ops int, miss, replay []float64) {
	e.setup = append(e.setup, setupS)
	e.wall = append(e.wall, use.wallS)
	e.cpu = append(e.cpu, use.cpuS)
	e.alloc = append(e.alloc, use.allocMB)
	e.heap = append(e.heap, retainedMB)
	e.mips = append(e.mips, float64(instrs)/1e6/use.wallS)
	e.rps = append(e.rps, float64(ops)/use.wallS)
	e.miss = append(e.miss, median(miss))
	e.replay = append(e.replay, median(replay))
}

// emit appends the end-to-end metrics in their documented order.
func (e *endToEnd) emit(res *result) {
	res.add("setup_s", "s", median(e.setup))
	res.add("wall_s", "s", median(e.wall))
	res.add("cpu_s", "s", median(e.cpu))
	res.add("alloc_mb", "MB", median(e.alloc))
	res.add("retained_heap_mb", "MB", median(e.heap))
	res.add("sim_minstr_per_s", "Minstr/s", median(e.mips))
	res.add("dep_burst_mae_pct", "%", e.maePct)
	res.add("req_per_s", "req/s", median(e.rps))
	res.add("replay_p50_ms", "ms", 1e3*median(e.replay))
	res.add("miss_p50_ms", "ms", 1e3*median(e.miss))
}

// logRound reports one finished round on standard error, with the CPU
// time the hypervisor took from this machine meanwhile: on a virtual
// machine that time shows as wall and CPU time the program never got.
func logRound(n int, setupS float64, use spent) {
	fmt.Fprintf(os.Stderr, "perfbench: round %d: setup %.4g s, wall %.3f s, cpu %.3f s, %d GCs, steal %.2f s\n",
		n, setupS, use.wallS, use.cpuS, use.gcs, use.stealS)
}

// stealSeconds reads the machine's total stolen CPU time from /proc/stat;
// 0 where the file or the field is missing.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
