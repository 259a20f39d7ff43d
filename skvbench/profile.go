package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// The traced run buckets CPU-profile samples into cpu.* shares. The
// profile comes from runtime/pprof (a gzipped profile.proto); the few
// fields needed are decoded here, since the standard library has no
// parser and the benchmark takes no dependencies.

// profiled runs fn, under a CPU profile when trace is set, and returns the
// profile's cpu.* shares (nil when untraced).
func profiled(trace bool, label string, fn func() error) (map[string]float64, error) {
	if !trace {
		return nil, fn()
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return profileShares(buf.Bytes(), label)
}

// setShares records a traced run's CPU shares: cpu.rdb from the set-up
// profile (where the full sync serialises the keyspace), every other
// bucket from the timed window's.
func setShares(out *outcome, setup, window map[string]float64) {
	for k, v := range window {
		out.set(k, v)
	}
	out.set("cpu.rdb", setup["cpu.rdb"])
}

// pprofSample is one decoded sample: its stack as function names, leaf
// first, and its CPU time.
type pprofSample struct {
	stack []string
	value int64
}

// profileShares decodes a CPU profile, saves it under outDir as
// <label>.pprof (for `go tool pprof`), and returns each bucket's share of
// the sampled CPU time. Every bucket of perLayer's cpu.* list is present.
func profileShares(data []byte, label string) (map[string]float64, error) {
	if err := os.WriteFile(filepath.Join(outDir, label+".pprof"), data, 0o644); err != nil {
		return nil, err
	}
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("decoding %s profile: %w", label, err)
	}
	shares := map[string]float64{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "cpu.") {
			shares[d.name] = 0
		}
	}
	var total float64
	for _, s := range samples {
		shares[bucket(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares, nil
}

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack (assists run inside the allocator, so this is checked first).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
}

// mallocFrames mark allocator work.
var mallocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.rawstring",
	"runtime.rawbyteslice", "runtime.newarray",
}

// skvLayers are the packages with a cpu.<name> bucket of their own; the
// rest of the module's packages go to cpu.other.
var skvLayers = map[string]bool{
	"sim": true, "rdma": true, "rconn": true, "fabric": true, "server": true,
	"core": true, "replstream": true, "tracking": true, "workload": true,
	"store": true, "dict": true, "obj": true, "resp": true, "netserver": true,
	"rdb": true,
}

// bucket names the cpu.* share a sample belongs to. GC and allocator work
// are recognised anywhere in the stack. Otherwise the sample goes to the
// package of its leaf frame, where runtime and standard-library frames are
// skipped (a memmove or map lookup is charged to the module code that
// called it); system calls (syscall, internal/poll) go to cpu.syscall, the
// benchmark's own load generator to cpu.bench, and stacks with no module
// frame (scheduler, idle) to cpu.runtime.
func bucket(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "cpu.gc"
			}
		}
	}
	for _, fn := range stack {
		for _, p := range mallocFrames {
			if strings.HasPrefix(fn, p) {
				return "cpu.malloc"
			}
		}
	}
	for _, fn := range stack {
		switch pkg := packageOf(fn); {
		case pkg == "syscall" || pkg == "internal/poll" || strings.HasSuffix(pkg, "/syscall"):
			return "cpu.syscall"
		case pkg == "main":
			return "cpu.bench"
		case strings.HasPrefix(pkg, "skv/internal/"):
			if name := strings.TrimPrefix(pkg, "skv/internal/"); skvLayers[name] {
				return "cpu." + name
			}
			return "cpu.other"
		case strings.HasPrefix(pkg, "skv/") || pkg == "skv":
			return "cpu.other"
		}
	}
	return "cpu.runtime"
}

// packageOf extracts the import path from a symbol name such as
// "skv/internal/rconn.(*conn).handleData".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// decodeProfile reads the samples of a gzipped profile.proto. For a CPU
// profile the sample values are (count, nanoseconds); the last is used.
func decodeProfile(data []byte) ([]pprofSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		decodeErr error
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s rawSample
			decodeErr = errors.Join(decodeErr, eachField(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, x := range appendUints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			decodeErr = errors.Join(decodeErr, eachField(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line
					decodeErr = errors.Join(decodeErr, eachField(b, func(f, w int, v uint64, b []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, eachField(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, err
	}
	out := make([]pprofSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := pprofSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; idx >= 0 && int(idx) < len(strs) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendUints appends a repeated uint64 field's values, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(field, wire, v, nil)
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
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
