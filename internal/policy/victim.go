package policy

import (
	"fmt"
	"strings"
)

// VictimSelector chooses which Victim Cache way receives a line evicted
// from the Baseline Cache. The caller has already filtered the set down
// to candidate ways with enough free segments; the selector only ranks
// them. Section VI.B.4 of the paper studies these variants; the default
// is the ECM-inspired largest-partner rule.
type VictimSelector interface {
	// Name identifies the selector (e.g. "ecm").
	Name() string
	// Select returns the index into cands of the way to use.
	// cands is never empty.
	Select(set int, cands []Candidate) int
	// OnFill, OnHit and OnInvalidate keep recency state for selectors
	// that need it (LRU variants); others ignore them.
	OnFill(set, way int)
	OnHit(set, way int)
	OnInvalidate(set, way int)
}

// Candidate describes one feasible destination way in the Victim Cache.
type Candidate struct {
	Way         int  // physical way index
	PartnerSegs int  // compressed size (in segments) of the base partner line
	Occupied    bool // a victim line currently lives here and would be evicted
}

// VictimNames lists the selectors VictimByName accepts, in
// presentation order.
func VictimNames() []string {
	return []string{"random", "ecm", "lru", "sizelru"}
}

// VictimByName returns a constructor for the named victim selector.
// Known names: "random", "ecm", "lru", "sizelru".
func VictimByName(name string) (func(sets, ways int) VictimSelector, error) {
	switch name {
	case "random":
		return func(sets, ways int) VictimSelector { return NewRandomVictim(1) }, nil
	case "ecm":
		return func(sets, ways int) VictimSelector { return NewECMVictim() }, nil
	case "lru":
		return NewLRUVictim, nil
	case "sizelru":
		return NewSizeLRUVictim, nil
	default:
		return nil, fmt.Errorf("policy: unknown victim selector %q (want one of %s)", name, strings.Join(VictimNames(), ", "))
	}
}

// RandomVictim picks uniformly among the candidates, preferring
// unoccupied ways (evicting nothing beats evicting something).
type RandomVictim struct {
	rng Random
}

// NewRandomVictim returns a random victim selector.
func NewRandomVictim(seed uint64) *RandomVictim {
	return &RandomVictim{rng: *NewRandom(1, 1, seed)}
}

// Name implements VictimSelector.
func (*RandomVictim) Name() string { return "random" }

// Select implements VictimSelector.
func (p *RandomVictim) Select(set int, cands []Candidate) int {
	if i := firstFree(cands); i >= 0 {
		return i
	}
	return int(p.rng.Next() % uint64(len(cands)))
}

// OnFill implements VictimSelector.
func (*RandomVictim) OnFill(set, way int) {}

// OnHit implements VictimSelector.
func (*RandomVictim) OnHit(set, way int) {}

// OnInvalidate implements VictimSelector.
func (*RandomVictim) OnInvalidate(set, way int) {}

func firstFree(cands []Candidate) int {
	for i, c := range cands {
		if !c.Occupied {
			return i
		}
	}
	return -1
}

// ECMVictim implements the paper's default: among the candidate ways,
// choose the one whose base partner line is largest. Pairing small
// victims with large bases leaves the small-base ways free for larger
// victims later, maximizing effective capacity (inspired by ECM, Baek
// et al., HPCA 2013). Unoccupied candidates win first.
type ECMVictim struct{}

// NewECMVictim returns the ECM-inspired selector.
func NewECMVictim() *ECMVictim { return &ECMVictim{} }

// Name implements VictimSelector.
func (*ECMVictim) Name() string { return "ecm" }

// Select implements VictimSelector.
func (*ECMVictim) Select(set int, cands []Candidate) int {
	best := -1
	bestSegs := -1
	// Prefer unoccupied; among those (or among occupied if none free),
	// maximize partner size.
	for pass := 0; pass < 2; pass++ {
		wantFree := pass == 0
		for i, c := range cands {
			if c.Occupied == wantFree {
				continue
			}
			if c.PartnerSegs > bestSegs {
				best, bestSegs = i, c.PartnerSegs
			}
		}
		if best >= 0 {
			return best
		}
	}
	return 0
}

// OnFill implements VictimSelector.
func (*ECMVictim) OnFill(set, way int) {}

// OnHit implements VictimSelector.
func (*ECMVictim) OnHit(set, way int) {}

// OnInvalidate implements VictimSelector.
func (*ECMVictim) OnInvalidate(set, way int) {}

// LRUVictim evicts the least recently filled/hit victim line among the
// candidates.
type LRUVictim struct {
	ways  int
	clock uint64
	stamp []uint64
}

// NewLRUVictim returns an LRU victim selector.
func NewLRUVictim(sets, ways int) VictimSelector {
	return &LRUVictim{ways: ways, stamp: make([]uint64, sets*ways)}
}

// Name implements VictimSelector.
func (*LRUVictim) Name() string { return "lru" }

// Select implements VictimSelector.
func (p *LRUVictim) Select(set int, cands []Candidate) int {
	if i := firstFree(cands); i >= 0 {
		return i
	}
	best, oldest := 0, ^uint64(0)
	for i, c := range cands {
		if s := p.stamp[set*p.ways+c.Way]; s < oldest {
			best, oldest = i, s
		}
	}
	return best
}

func (p *LRUVictim) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// OnFill implements VictimSelector.
func (p *LRUVictim) OnFill(set, way int) { p.touch(set, way) }

// OnHit implements VictimSelector.
func (p *LRUVictim) OnHit(set, way int) { p.touch(set, way) }

// OnInvalidate implements VictimSelector.
func (p *LRUVictim) OnInvalidate(set, way int) { p.stamp[set*p.ways+way] = 0 }

// SizeLRUVictim blends the ECM size rule with recency: it maximizes the
// partner size but breaks ties toward the least recently used victim.
// This is the "mix of LRU and size-based replacement" variant of
// Section VI.B.4.
type SizeLRUVictim struct {
	lru LRUVictim
}

// NewSizeLRUVictim returns the blended selector.
func NewSizeLRUVictim(sets, ways int) VictimSelector {
	return &SizeLRUVictim{lru: LRUVictim{ways: ways, stamp: make([]uint64, sets*ways)}}
}

// Name implements VictimSelector.
func (*SizeLRUVictim) Name() string { return "sizelru" }

// Select implements VictimSelector.
func (p *SizeLRUVictim) Select(set int, cands []Candidate) int {
	if i := firstFree(cands); i >= 0 {
		return i
	}
	best := -1
	bestSegs := -1
	bestStamp := ^uint64(0)
	for i, c := range cands {
		s := p.lru.stamp[set*p.lru.ways+c.Way]
		if c.PartnerSegs > bestSegs || (c.PartnerSegs == bestSegs && s < bestStamp) {
			best, bestSegs, bestStamp = i, c.PartnerSegs, s
		}
	}
	return best
}

// OnFill implements VictimSelector.
func (p *SizeLRUVictim) OnFill(set, way int) { p.lru.OnFill(set, way) }

// OnHit implements VictimSelector.
func (p *SizeLRUVictim) OnHit(set, way int) { p.lru.OnHit(set, way) }

// OnInvalidate implements VictimSelector.
func (p *SizeLRUVictim) OnInvalidate(set, way int) { p.lru.OnInvalidate(set, way) }
