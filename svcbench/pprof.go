package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample: its weight (CPU nanoseconds) and
// its stack as function names, leaf first, inlined frames expanded.
type cpuSample struct {
	weight int64
	stack  []string
}

// parseProfile decodes the gzipped pprof protobuf that runtime/pprof
// writes. Only the fields needed for attribution are read: samples,
// locations (with their inline chains), functions and the string table.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs       []string
		sampleType [][2]int64 // (type, unit) string indices
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{}
		funcName   = map[uint64]int64{}
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := walkFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendPacked(pb, v, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(pb, v, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// Weight by the "cpu" value (nanoseconds) when present, else the last.
	vi := len(sampleType) - 1
	for i, vt := range sampleType {
		if str(vt[0]) == "cpu" {
			vi = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		cs := cpuSample{weight: s.vals[vi]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				cs.stack = append(cs.stack, str(funcName[f]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// walkFields calls fn for every field of a protobuf message: varint
// fields pass their value, length-delimited fields their bytes.
func walkFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked handles a repeated varint field in either encoding: a
// packed run (b non-nil) or one unpacked value v.
func appendPacked(b []byte, v uint64, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
