package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// stepStages are the pipeline stages Step calls, in the names of their
// methods.
var stepStages = []string{"fetch", "dispatch", "issue", "complete", "retire"}

const stepFunc = "avfsim/internal/pipeline.(*Pipeline).Step"

// stepShares reads a CPU profile (gzipped pprof protobuf, as
// runtime/pprof writes it) and returns, for each stage in stepStages, the
// share of the samples inside pipeline.(*Pipeline).Step whose stack also
// holds that stage's method. Inlined frames count: the profile lists
// them as extra lines of a location.
func stepShares(gz []byte) (map[string]float64, error) {
	p, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	stageOf := map[string]string{}
	for _, st := range stepStages {
		stageOf["avfsim/internal/pipeline.(*Pipeline)."+st] = st
	}
	var inStep int64
	counts := map[string]int64{}
	for _, s := range p.samples {
		step, stage := false, ""
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.funcName(fn)
				if name == stepFunc {
					step = true
				}
				if st, ok := stageOf[name]; ok {
					stage = st
				}
			}
		}
		if step {
			inStep += s.count
			if stage != "" {
				counts[stage] += s.count
			}
		}
	}
	shares := map[string]float64{}
	for _, st := range stepStages {
		if inStep > 0 {
			shares[st] = float64(counts[st]) / float64(inStep)
		}
	}
	return shares, nil
}

// profile holds the parts of a pprof protobuf stepShares needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

type profSample struct {
	locs  []uint64
	count int64
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

// readProfile decodes a gzipped pprof protobuf.
func readProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1: // location_id
					s.locs = appendVarints(s.locs, w, v, d)
				case 2: // value: [samples, cpu ns]; keep the first
					if vals := appendVarints(nil, w, v, d); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringField:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message: varints arrive in
// v, length-delimited fields in data. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
