package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layers are the repository's modules under repro/internal, named by
// the last element of their package path. A sample or allocation is
// charged to the innermost frame that belongs to one of them; internal
// modules outside this list are charged to "other".
var layers = []string{
	"devent", "obs", "faas", "htex", "simgpu", "fleet", "tsdb", "analyze",
	"autoscale", "core", "llm", "metrics", "harness", "other",
}

// Runtime pseudo-layers for samples with no repro/internal frame.
const (
	layerGC           = "runtime.gc"
	layerSched        = "runtime.sched"
	layerUnattributed = "unattributed"
)

// gcFrames mark the runtime's background collector work. GC assists
// run on the allocating goroutine and are charged to its layer.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime._GC": true, "runtime.gcMarkTermination": true, "runtime.gcMarkDone": true,
}

// schedFrames mark the goroutine scheduler: parking, switching and
// looking for work, which devent's channel handoff between procs
// drives.
var schedFrames = map[string]bool{
	"runtime.mcall": true, "runtime.park_m": true, "runtime.gogo": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.goexit0": true,
	"runtime.mstart": true, "runtime.mstart0": true, "runtime.mstart1": true,
	"runtime._System": true, "runtime.sysmon": true, "runtime.gopreempt_m": true,
	"runtime.goschedImpl": true, "runtime.exitsyscall": true,
}

const internalPrefix = "repro/internal/"

// moduleOf returns the layer of a function under repro/internal, or ""
// for any other function.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	// Cut generic instantiations and the symbol: the package path ends
	// at the first '.' after its last '/'.
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	mod := pkg[strings.LastIndex(pkg, "/")+1:]
	for _, l := range layers {
		if l == mod {
			return l
		}
	}
	return "other"
}

// layerOf attributes a stack, leaf first, to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if gcFrames[fn] {
			return layerGC
		}
		if schedFrames[fn] {
			return layerSched
		}
	}
	return layerUnattributed
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns the CPU
// seconds charged to each layer and the number of samples.
func cpuByLayer(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	n := 0
	for _, s := range p.samples {
		// Values are (sample count, CPU nanoseconds).
		if len(s.values) < 2 {
			return nil, 0, errors.New("cpu profile: sample without a nanoseconds value")
		}
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		out[layerOf(stack)] += float64(s.values[1]) / 1e9
		n += int(s.values[0])
	}
	return out, n, nil
}

// allocByLayer charges the heap allocations sampled between two
// runtime.MemProfile snapshots to layers, in bytes, unsampled with the
// estimator runtime/pprof uses.
func allocByLayer(before, after []runtime.MemProfileRecord, rate int) map[string]float64 {
	type key [32]uintptr
	prev := map[key]runtime.MemProfileRecord{}
	for _, r := range before {
		prev[r.Stack0] = r
	}
	out := map[string]float64{}
	for _, r := range after {
		objs, bytes := r.AllocObjects, r.AllocBytes
		if p, ok := prev[r.Stack0]; ok {
			objs -= p.AllocObjects
			bytes -= p.AllocBytes
		}
		if objs <= 0 || bytes <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(bytes)/float64(objs)/float64(rate)))
		}
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(stack)] += float64(bytes) * scale
	}
	return out
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	samples []profSample
	// locFuncs maps a location ID to its function names, innermost
	// inlined call first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the protocol-buffer encoding of a pprof Profile
// message (github.com/google/pprof/proto/profile.proto): samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]string{}}
	var strs []string
	funcName := map[uint64]int64{}    // function ID → string index
	locLines := map[uint64][]uint64{} // location ID → function IDs
	err := walkFields(b, func(field, _ int, _ uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			idx, ok := funcName[f]
			if !ok || idx < 0 || idx >= int64(len(strs)) {
				return nil, fmt.Errorf("location %d: bad function %d", id, f)
			}
			names = append(names, strs[idx])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, data a length-delimited payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either its packed
// (length-delimited) or its unpacked encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
