package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// The traced run attributes host CPU time to the program's packages from a
// runtime/pprof CPU profile. The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); the decoder below reads
// only the fields the attribution needs, so the module stays free of
// dependencies.

// profSample is one stack (leaf first, inlined frames expanded) and the
// CPU nanoseconds sampled on it.
type profSample struct {
	funcs []string
	cpuNS int64
}

// pbReader walks one protocol-buffer message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errors.New("pprof: truncated varint")
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errors.New("pprof: varint overflow")
	return 0
}

// field returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2). ok is false at the end or on error.
func (r *pbReader) field() (num int, wire int, v uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("pprof: truncated fixed64")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = errors.New("pprof: truncated field")
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("pprof: truncated fixed32")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = errors.New("pprof: unsupported wire type")
		return 0, 0, 0, nil, false
	}
	return num, wire, v, payload, r.err == nil
}

// varints decodes a repeated integer field in either encoding.
func varints(wire int, v uint64, payload []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	r := pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		out = append(out, r.varint())
	}
	return out
}

// parseCPUProfile decodes a gzipped CPU profile into its samples.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		cpuIndex  = -1
		typeIdx   []uint64 // sample_type type string indexes
	)
	top := pbReader{b: raw}
	for {
		num, _, _, payload, ok := top.field()
		if !ok {
			break
		}
		switch num {
		case 1: // sample_type
			r := pbReader{b: payload}
			for {
				n, _, fv, _, ok := r.field()
				if !ok {
					break
				}
				if n == 1 {
					typeIdx = append(typeIdx, fv)
				}
			}
		case 2: // sample
			var s rawSample
			r := pbReader{b: payload}
			for {
				n, w, fv, p, ok := r.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					s.locs = append(s.locs, varints(w, fv, p)...)
				case 2:
					s.vals = append(s.vals, varints(w, fv, p)...)
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			r := pbReader{b: payload}
			for {
				n, _, fv, p, ok := r.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = fv
				case 4: // line
					lr := pbReader{b: p}
					for {
						ln, _, lv, _, ok := lr.field()
						if !ok {
							break
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			r := pbReader{b: payload}
			for {
				n, _, fv, _, ok := r.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = fv
				case 2:
					name = fv
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	for i, t := range typeIdx {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpuIndex = i
		}
	}
	if cpuIndex < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpuIndex >= len(s.vals) {
			continue
		}
		ps := profSample{cpuNS: int64(s.vals[cpuIndex])}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if si := funcNames[fid]; si < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[si])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// profBuckets are the attribution targets, in report order. The jvm,
// sampling, energy, sim and dacapo packages are charged to other: their
// own frames are rarely innermost (their work runs in cpu, core and rng),
// so each would read 0, or one 10 ms sample, on most runs.
var profBuckets = []string{
	"event", "cpu", "mem", "kernel", "core", "rng", "runtime_sched", "runtime_gc", "other",
}

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcDrain", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.gcStart",
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "depburst/internal/"

// attribute returns the bucket one stack's CPU time belongs to: GC work
// anywhere on the stack; otherwise the innermost frame in one of the
// program's packages; otherwise scheduler work when the stack is the Go
// runtime's alone.
func attribute(funcs []string) string {
	for _, f := range funcs {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, b := range profBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	for _, f := range funcs {
		if !strings.HasPrefix(f, "runtime.") {
			return "other"
		}
	}
	return "runtime_sched"
}

// attributeProfile sums CPU seconds per bucket, in profBuckets order.
func attributeProfile(samples []profSample) []float64 {
	out := make([]float64, len(profBuckets))
	for _, s := range samples {
		b := attribute(s.funcs)
		for i, name := range profBuckets {
			if name == b {
				out[i] += float64(s.cpuNS) / 1e9
			}
		}
	}
	return out
}
