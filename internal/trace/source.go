// Package trace defines the dynamic instruction stream the simulator
// consumes: the Source interface, a deterministic parameterized synthetic
// generator (the stand-in for the paper's SPEC CPU2000 Aria/MET traces),
// and a compact binary trace-file format.
package trace

import "avfsim/internal/isa"

// Source is a stream of dynamic instructions. Next returns the next
// instruction and true, or a zero Inst and false when the stream is
// exhausted. Sources are not safe for concurrent use.
type Source interface {
	Next() (isa.Inst, bool)
}

// Filler is the block form of Source, implemented by the synthetic
// streams: Fill writes the next instructions into buf and returns how
// many it wrote, fewer than len(buf) only once the stream has ended.
type Filler interface {
	Fill(buf []isa.Inst) int
}

// FillFrom fills buf from src: in one call when src is a Filler,
// otherwise one Next call per instruction until buf is full or the
// stream ends. It returns how many instructions it wrote.
func FillFrom(src Source, buf []isa.Inst) int {
	if f, ok := src.(Filler); ok {
		return f.Fill(buf)
	}
	for i := range buf {
		var ok bool
		if buf[i], ok = src.Next(); !ok {
			return i
		}
	}
	return len(buf)
}

// SliceSource adapts a slice of instructions into a Source.
type SliceSource struct {
	insts []isa.Inst
	pos   int
}

// NewSliceSource returns a Source that yields insts in order.
func NewSliceSource(insts []isa.Inst) *SliceSource {
	return &SliceSource{insts: insts}
}

// Next implements Source.
func (s *SliceSource) Next() (isa.Inst, bool) {
	if s.pos >= len(s.insts) {
		return isa.Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Limit wraps a Source and truncates it after n instructions.
type Limit struct {
	src  Source
	left int64
}

// NewLimit returns a Source yielding at most n instructions from src.
func NewLimit(src Source, n int64) *Limit {
	return &Limit{src: src, left: n}
}

// Next implements Source.
func (l *Limit) Next() (isa.Inst, bool) {
	if l.left <= 0 {
		return isa.Inst{}, false
	}
	l.left--
	return l.src.Next()
}

// Collect drains up to max instructions from src into a slice.
func Collect(src Source, max int) []isa.Inst {
	out := make([]isa.Inst, max)
	return out[:FillFrom(src, out)]
}
