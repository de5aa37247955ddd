package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU table attributes each runtime/pprof sample to one bucket:
//
//   - "gc": any frame is runtime GC work (background mark workers,
//     mark assists, sweeping, scavenging);
//   - <module>: the innermost ccpfs/internal/<module> frame, so a
//     memmove under pagecache.mergeBlocks counts as pagecache (the
//     module is the package path's last element: transport/memnet is
//     memnet);
//   - "vbench": the innermost such frame is the benchmark's own code
//     (pattern fill and checks);
//   - "sched": only runtime frames, the scheduler switching
//     goroutines — mostly the VClock handing its run token over;
//   - "other": everything else.
//
// The profile is decoded here, with the standard library only: a
// gzipped profile.proto message, of which the sample, location,
// function and string-table fields are read.

// cpuBuckets maps bucket name to sample count.
type cpuBuckets map[string]int64

func (b cpuBuckets) add(o cpuBuckets) {
	for k, v := range o {
		b[k] += v
	}
}

func (b cpuBuckets) total() int64 {
	var n int64
	for _, v := range b {
		n += v
	}
	return n
}

// sorted returns the bucket names by descending sample count.
func (b cpuBuckets) sorted() []string {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if b[names[i]] != b[names[j]] {
			return b[names[i]] > b[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// attribute decodes a gzipped CPU profile and buckets its samples by
// module, and by the function that decided the module (the innermost
// owned frame; GC, scheduler and other samples keep their bucket name).
func attribute(gz []byte) (modules, funcs cpuBuckets, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	funcName := map[uint64]string{}
	for id, nameIdx := range p.funcs {
		if nameIdx < uint64(len(p.strs)) {
			funcName[id] = p.strs[nameIdx]
		}
	}
	modules, funcs = cpuBuckets{}, cpuBuckets{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				frames = append(frames, funcName[fn])
			}
		}
		m, f := bucketOf(frames)
		modules[m] += s.count
		funcs[f] += s.count
	}
	return modules, funcs, nil
}

// bucketOf names the bucket of one stack, innermost frame first, and
// the frame that decided it.
func bucketOf(frames []string) (module, frame string) {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc", "gc"
		}
	}
	onlyRuntime := true
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "ccpfs/internal/"); ok {
			pkg := rest
			if i := strings.Index(pkg, "."); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg[strings.LastIndex(pkg, "/")+1:], rest
		}
		if strings.HasPrefix(f, "main.") {
			return "vbench", f
		}
		if !strings.HasPrefix(f, "runtime.") {
			onlyRuntime = false
		}
	}
	if onlyRuntime && len(frames) > 0 {
		return "sched", "sched"
	}
	return "other", "other"
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]uint64   // function id → name string index
	strs    []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: samples
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var values []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendRepeated(s.locs, wire, v, data)
				case fSampleValue:
					values = appendRepeated(values, wire, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case fProfileFunction:
			var id, name uint64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case fProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendRepeated appends one element of a repeated varint field, which
// the encoder writes either packed (one length-delimited run) or one
// varint per element.
func appendRepeated(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errProto = errors.New("profile: malformed protobuf")

// eachField calls fn for every field of the message b: varint fields
// pass their value in v, length-delimited ones their payload in data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
