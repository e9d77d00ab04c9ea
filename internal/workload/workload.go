// Package workload defines the benchmark suite used by the experiments:
// eleven synthetic profiles named after the SPEC CPU2000 benchmarks the
// paper evaluates (ammp, art, bzip2, equake, facerec, lucas, mesa,
// perlbmk, sixtrack, swim, wupwise).
//
// Real Aria/MET SPEC traces are proprietary, so each profile is a phase
// schedule of trace.Params whose knobs (instruction mix, dependency
// distance, dead-value fraction, working set, access pattern, branch
// behaviour) are chosen to mimic the qualitative character of the named
// benchmark: FP-heavy vs integer-heavy, cache-resident vs streaming,
// strongly phased vs flat. See DESIGN.md §2 for the substitution argument.
package workload

import (
	"fmt"
	"sort"

	"avfsim/internal/isa"
	"avfsim/internal/trace"
)

// Phase is one program phase: generator parameters plus how long the phase
// lasts, in dynamic instructions.
type Phase struct {
	// Name labels the phase for diagnostics.
	Name string
	// Params parameterizes the synthetic stream for this phase.
	Params trace.Params
	// Insts is the phase duration in dynamic instructions.
	Insts int64
}

// Profile is a named benchmark: a schedule of phases, repeated cyclically
// so a Profile can supply any trace length.
type Profile struct {
	// Name is the benchmark name (e.g. "bzip2").
	Name string
	// Phases is the repeating phase schedule.
	Phases []Phase
}

// Validate checks the profile for usability.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: profile %s has no phases", p.Name)
	}
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Insts <= 0 {
			return fmt.Errorf("workload: profile %s phase %d has non-positive length", p.Name, i)
		}
		if err := ph.Params.Validate(); err != nil {
			return fmt.Errorf("workload: profile %s phase %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// Source returns an endless instruction stream cycling through the
// profile's phases. seed perturbs every phase's generator seed so repeated
// runs can be made independent while staying deterministic.
func (p *Profile) Source(seed uint64) (trace.Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newPhasedSource(p, seed)
}

// MustSource is Source, panicking on an invalid profile.
func (p *Profile) MustSource(seed uint64) trace.Source {
	s, err := p.Source(seed)
	if err != nil {
		panic(err)
	}
	return s
}

// phasedSource cycles through a profile's phases. Each visit to a phase
// resumes that phase's generator (loops re-enter the same code), which
// preserves per-phase code and data footprints across the whole run.
type phasedSource struct {
	profile *Profile
	gens    []*trace.Generator
	cur     int
	left    int64
}

func newPhasedSource(p *Profile, seed uint64) (*phasedSource, error) {
	s := &phasedSource{profile: p}
	for i := range p.Phases {
		params := p.Phases[i].Params
		params.Seed ^= seed * 0x9e3779b97f4a7c15
		g, err := trace.NewGenerator(params)
		if err != nil {
			return nil, err
		}
		s.gens = append(s.gens, g)
	}
	s.left = p.Phases[0].Insts
	return s, nil
}

// Next implements trace.Source.
func (s *phasedSource) Next() (isa.Inst, bool) {
	var buf [1]isa.Inst
	s.Fill(buf[:])
	return buf[0], true
}

// Fill implements trace.Filler: each phase's generator fills the part of
// buf that falls inside the phase. The stream never ends.
func (s *phasedSource) Fill(buf []isa.Inst) int {
	for done := 0; done < len(buf); {
		for s.left <= 0 {
			s.cur = (s.cur + 1) % len(s.gens)
			s.left = s.profile.Phases[s.cur].Insts
		}
		n := int(min(s.left, int64(len(buf)-done)))
		s.gens[s.cur].Fill(buf[done : done+n])
		s.left -= int64(n)
		done += n
	}
	return len(buf)
}

// Suite returns the eleven benchmark profiles in the paper's order.
func Suite() []*Profile {
	names := Names()
	out := make([]*Profile, 0, len(names))
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			panic(err) // built-in table must be consistent
		}
		out = append(out, p)
	}
	return out
}

// Names returns the benchmark names in the paper's (alphabetical) order.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the named profile, or an error listing valid names.
func ByName(name string) (*Profile, error) {
	b, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	p := b() // construct fresh so callers may mutate
	return p, nil
}
