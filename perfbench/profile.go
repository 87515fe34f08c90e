package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Layer attribution of runtime/pprof profiles. Calls such as cloud.Run and
// dataset.Generate cannot be split by the benchmark's own spans, so the
// traced run samples the whole process and charges each sample to a layer:
// the innermost powerlens/internal/<layer> frame on its stack. Standard
// library and runtime frames above that frame count for it, GC background
// workers count as "gc", and anything else (the benchmark itself, the
// scheduler) as "other".

const modulePrefix = "powerlens/internal/"

// mutexFraction samples one in this many mutex contention events; pprof
// scales the reported delay back up.
const mutexFraction = 5

// profiler accumulates per-layer CPU time and mutex delay over the traced
// repetitions.
type profiler struct {
	cpu  map[string]int64 // layer → sampled CPU nanoseconds
	wait map[string]int64 // layer → mutex delay nanoseconds, by lock holder
	buf  bytes.Buffer
}

func newProfiler() *profiler {
	return &profiler{cpu: map[string]int64{}, wait: map[string]int64{}}
}

// start begins CPU profiling and mutex sampling for one traced repetition.
func (p *profiler) start() error {
	p.buf.Reset()
	runtime.SetMutexProfileFraction(mutexFraction)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetMutexProfileFraction(0)
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

// stop ends the repetition's CPU profile and charges its samples to layers.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	return attribute(p.buf.Bytes(), "cpu", p.cpu)
}

// finish charges the mutex profile to layers. Sampling is on only during
// traced repetitions, so the cumulative profile holds just those.
func (p *profiler) finish() error {
	var b bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&b, 0); err != nil {
		return fmt.Errorf("write mutex profile: %w", err)
	}
	return attribute(b.Bytes(), "delay", p.wait)
}

// attribute decodes a gzipped profile.proto and adds the named sample value
// of every sample to its layer in into.
func attribute(gz []byte, valueType string, into map[string]int64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("decode profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("decode profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return err
	}
	idx := -1
	for i, t := range prof.sampleTypes {
		if prof.str(t) == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("decode profile: no %q sample type", valueType)
	}
	for _, s := range prof.samples {
		if idx >= len(s.values) {
			continue
		}
		into[prof.layerOf(s.locations)] += s.values[idx]
	}
	return nil
}

// layerOf returns the layer a stack (innermost location first) is charged to.
func (pr *profile) layerOf(locs []uint64) string {
	gc := false
	for _, id := range locs {
		for _, fn := range pr.locations[id] {
			name := pr.str(pr.functions[fn])
			if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
				if end := strings.IndexAny(rest, "/."); end >= 0 {
					rest = rest[:end]
				}
				for _, l := range layers {
					if rest == l {
						return l
					}
				}
				return "other"
			}
			switch name {
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

func (pr *profile) str(i int64) string {
	if i < 0 || int(i) >= len(pr.strings) {
		return ""
	}
	return pr.strings[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	pr := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					pr.sampleTypes = append(pr.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case fSampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			pr.samples = append(pr.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			pr.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			pr.functions[id] = name
			return err
		case fProfileStringTable:
			pr.strings = append(pr.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	return pr, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, passing each field's number with its
// varint value (wire type 0) or its bytes (wire type 2). Fixed-width fields
// are skipped.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, which the encoder
// writes either one per field (v) or packed into one byte string.
func eachVarint(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
