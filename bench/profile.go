package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protocol-buffer profile runtime/pprof
// writes, with the standard library alone, and charges every sample to
// a layer. Only the fields attribution needs are read:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value ([samples, cpu ns])
//	Location: 1 id, 4 line (innermost inlined frame first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string table index)

// profileSummary is a CPU profile reduced to per-layer self cost.
type profileSummary struct {
	samples      int64
	layerSamples map[string]int64
	layerNanos   map[string]int64
}

// parseProfile decodes a profile and attributes each sample to the
// innermost frame that belongs to mtsim (see layerOf), or to "runtime"
// when no frame does.
func parseProfile(gz []byte) (*profileSummary, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function → string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					return appendUints(&s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &profileSummary{layerSamples: map[string]int64{}, layerNanos: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				if l, ok := layerOf(strs[idx]); ok {
					layer = l
					break stack
				}
			}
		}
		n := int64(s.vals[0])
		p.samples += n
		p.layerSamples[layer] += n
		if len(s.vals) > 1 {
			p.layerNanos[layer] += int64(s.vals[1])
		}
	}
	return p, nil
}

// layerOf maps a profiled function name to its layer: the last element
// of its package path for mtsim/internal/... ("routing/aodv" → "aodv"),
// "trace" for the benchmark's own code, and false for everything else.
func layerOf(fn string) (string, bool) {
	// The package path ends at the first dot after the last slash; type
	// arguments in brackets may hold slashes of their own, so cut first.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if i := strings.IndexByte(fn[strings.LastIndexByte(fn, '/')+1:], '.'); i >= 0 {
		pkg = fn[:strings.LastIndexByte(fn, '/')+1+i]
	}
	switch {
	case strings.HasPrefix(pkg, "mtsim/internal/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:], true
	case pkg == "mtsim/bench" || strings.HasPrefix(pkg, "mtsim/bench/") || pkg == "main":
		return "trace", true
	}
	return "", false
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// fields walks the top-level fields of a protocol-buffer message, calling
// f with each field's number and either its varint value or its bytes.
// Fixed-width fields are skipped; profiles use none that matter here.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which arrives either as
// one varint per field or packed into one length-delimited field.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
