package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A pprof profile is a gzipped protocol buffer (profile.proto). The standard
// library writes it but has no public reader, so this file decodes the part
// the benchmark needs: each sample's stack as function names, leaf first,
// and its value in nanoseconds.

type sample struct {
	stack []string
	ns    int64
}

// readProfile decodes a pprof profile and returns its samples, valued by
// the last sample type whose unit is nanoseconds (CPU time in a CPU profile,
// blocked time in a blocking profile).
func readProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	var (
		strs      []string
		types     [][2]int64 // (type, unit) string indexes per sample value
		rawSample [][]byte
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> name string index
	)
	err := fields(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := fields(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	vi := -1
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("pprof: no nanosecond sample type")
	}
	out := make([]sample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := fields(b, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return varints(b, func(v uint64) { locs = append(locs, v) })
			case 2:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return varints(b, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if vi >= len(vals) {
			continue
		}
		s := sample{ns: vals[vi]}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field number and
// either its varint value (b == nil) or its length-delimited payload.
func fields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("pprof: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("pprof: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
