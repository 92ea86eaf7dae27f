package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Minimal reader for the gzipped protobuf profiles runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). It keeps only what flat
// per-package attribution needs: each sample's leaf function and its last
// value (CPU nanoseconds for a CPU profile). `go tool pprof` reads the same
// files for anything deeper.

// Field numbers from profile.proto.
const (
	fProfileSample    = 2
	fProfileLocation  = 4
	fProfileFunction  = 5
	fProfileStrings   = 6
	fSampleLocationID = 1
	fSampleValue      = 2
	fLocationID       = 1
	fLocationLine     = 4
	fLineFunctionID   = 1
	fFunctionID       = 1
	fFunctionName     = 2
)

// readProfile decodes a gzipped pprof profile into leaf-function samples.
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf   uint64 // location id
		weight int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case fSampleLocationID:
					locs = appendVarints(locs, v, b)
				case fSampleValue:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			s.leaf, s.weight = locs[0], int64(vals[len(vals)-1])
			samples = append(samples, s)
		case fProfileLocation:
			var id, fn uint64
			var seenLine bool
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost inlined frame.
					if !seenLine {
						seenLine = true
						return eachField(b, func(n int, v uint64, _ []byte) error {
							if n == fLineFunctionID {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		name := "?"
		if i, ok := fnName[locFn[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out = append(out, profSample{Leaf: name, Weight: s.weight})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message, passing the
// value of varint fields as v and the payload of length-delimited ones as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint v, or
// a packed run of them in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
