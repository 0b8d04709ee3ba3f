package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the CPU shares
// need: each sample's weight and its stack of function names, leaf first
// (inlined frames expanded).
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	weight int64
	stack  []string
}

func (p *cpuProfile) total() int64 {
	var t int64
	for _, s := range p.samples {
		t += s.weight
	}
	return t
}

// share is the fraction of sample weight whose stack satisfies match.
func (p *cpuProfile) share(match func(stack []string) bool) float64 {
	t := p.total()
	if t == 0 {
		return 0
	}
	var n int64
	for _, s := range p.samples {
		if match(s.stack) {
			n += s.weight
		}
	}
	return float64(n) / float64(t)
}

// leafIn matches samples whose leaf frame is a function of one of pkgs.
func leafIn(pkgs ...string) func([]string) bool {
	return func(stack []string) bool {
		return len(stack) > 0 && inPackage(stack[0], pkgs)
	}
}

// anyIn matches samples with any frame in one of pkgs.
func anyIn(pkgs ...string) func([]string) bool {
	return func(stack []string) bool {
		for _, f := range stack {
			if inPackage(f, pkgs) {
				return true
			}
		}
		return false
	}
}

// under matches samples with a frame whose name starts with one of the
// given function-name prefixes (a closure's frames carry its parent's
// name as a prefix).
func under(prefixes ...string) func([]string) bool {
	return func(stack []string) bool {
		for _, f := range stack {
			for _, p := range prefixes {
				if strings.HasPrefix(f, p) {
					return true
				}
			}
		}
		return false
	}
}

// inPackage reports whether fn (a fully qualified Go function name) is
// declared in one of the import paths pkgs.
func inPackage(fn string, pkgs []string) bool {
	for _, p := range pkgs {
		if strings.HasPrefix(fn, p+".") {
			return true
		}
	}
	return false
}

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the fields behind cpuProfile are read.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, cpuSample{weight: s.values[0], stack: stack})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, body); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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
