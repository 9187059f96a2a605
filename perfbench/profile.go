package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes (the perftools.profiles.Profile message). It keeps only what the
// per-layer split needs: each sample's stack, leaf first with inlined
// calls expanded, and its values.

type frame struct {
	fn   string // function name, e.g. "runtime.mallocgc"
	file string // source file as recorded by the build
}

type sample struct {
	stack  []frame
	values []int64
}

type profile struct {
	units   []string // unit of each sample value, e.g. "nanoseconds"
	samples []sample
}

// value returns the sample's value in the given unit, or 0.
func (p *profile) value(s sample, unit string) int64 {
	for i, u := range p.units {
		if u == unit && i < len(s.values) {
			return s.values[i]
		}
	}
	return 0
}

// parseProfile decodes a gzipped profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		unitIdx   []int64
		rawSamp   []struct{ locs, vals []uint64 }
		funcs     = map[uint64][2]int64{} // id -> name, filename string indexes
		locations = map[uint64][]uint64{} // id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unitIdx = append(unitIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendRepeated(&s.locs, w, v, b)
				case 2:
					return appendRepeated(&s.vals, w, v, b)
				}
				return nil
			})
			rawSamp = append(rawSamp, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f[0] = int64(v)
				case 4:
					f[1] = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, u := range unitIdx {
		p.units = append(p.units, str(u))
	}
	for _, rs := range rawSamp {
		s := sample{}
		for _, v := range rs.vals {
			s.values = append(s.values, int64(v))
		}
		for _, loc := range rs.locs {
			for _, fid := range locations[loc] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: the field
// number, wire type, and the varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, packed or not.
func appendRepeated(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerSeconds splits a CPU profile's time into layers.
func layerSeconds(p *profile) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		out[attribute(s.stack)] += float64(p.value(s, "nanoseconds")) / 1e9
	}
	return out
}

// waitSeconds sums a mutex or block profile's delay over the samples
// whose stack has a frame from a repository file under dir and, if fn is
// not empty, a frame of function fn.
func waitSeconds(p *profile, dir, fn string) float64 {
	var ns int64
	for _, s := range p.samples {
		inDir, inFn := false, fn == ""
		for _, f := range s.stack {
			if rel, ok := repoFile(f.file); ok && strings.HasPrefix(rel, dir) {
				inDir = true
			}
			if f.fn == fn {
				inFn = true
			}
		}
		if inDir && inFn {
			ns += p.value(s, "nanoseconds")
		}
	}
	return float64(ns) / 1e9
}
