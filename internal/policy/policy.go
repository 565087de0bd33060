// Package policy implements the cache replacement policies used by the
// Base-Victim study: LRU, 1-bit NRU (the paper's default), random,
// SRRIP, and a 1-bit-age CHAR variant driven by L2 eviction hints, as
// well as the victim-cache selection policies of Section VI.B.4.
//
// A Policy owns the replacement metadata for a whole cache (all sets);
// the cache calls back into it on hits, fills and invalidations and asks
// it for a victim way on replacement. Policies are deterministic given
// their seed so simulations are reproducible.
package policy

import (
	"fmt"
	"strings"
)

// Policy tracks replacement state and picks victims.
type Policy interface {
	// Name identifies the policy (e.g. "nru").
	Name() string
	// OnHit updates state when way in set is hit by a demand access.
	OnHit(set, way int)
	// OnFill updates state when a new line is installed in way.
	OnFill(set, way int)
	// OnInvalidate clears state when the line in way is invalidated.
	OnInvalidate(set, way int)
	// Victim returns the way to replace in set. It must not be called
	// while the set has invalid ways (the cache fills those first).
	Victim(set int) int
}

// Recency is implemented by policies that can report whether a way is
// currently a replacement candidate (not recently used). The modified
// two-tag organization uses it to restrict its fit search to ways the
// base policy would be willing to evict.
type Recency interface {
	NotRecent(set, way int) bool
}

// Hinter is implemented by policies that consume external reuse hints.
// The CHAR policy uses hints generated on L2 evictions: dead=true means
// the evicted line was never reused while it lived in the L2, so the
// LLC copy is unlikely to be referenced again.
type Hinter interface {
	OnEvictionHint(set, way int, dead bool)
}

// Factory builds a policy instance for a cache geometry. Simulations
// pass factories around so each cache level can instantiate its own
// state.
type Factory func(sets, ways int) Policy

// Names lists the policies ByName accepts, in presentation order.
func Names() []string {
	return []string{"lru", "nru", "random", "srrip", "char", "drrip"}
}

// ByName returns a factory for the named policy. Known names: "lru",
// "nru", "random", "srrip", "char", "drrip".
func ByName(name string) (Factory, error) {
	switch name {
	case "lru":
		return NewLRU, nil
	case "nru":
		return NewNRU, nil
	case "random":
		return func(sets, ways int) Policy { return NewRandom(sets, ways, 1) }, nil
	case "srrip":
		return NewSRRIP, nil
	case "char":
		return NewCHAR, nil
	case "drrip":
		return NewDRRIP, nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// LRU is true least-recently-used replacement. Historically it kept a
// global access clock and per-way stamps, with Victim scanning for the
// minimum stamp; it now keeps a per-set doubly-linked recency chain so
// every operation, Victim included, is O(1). The two formulations are
// exactly equivalent — TestLRUMatchesStampReference drives them in
// lockstep — by this argument: stamps strictly increase, so the chain
// order from LRU head to MRU tail is exactly ascending stamp order for
// touched ways; untouched and invalidated ways (stamp 0 in the old
// scheme) are kept at the head in ascending way order, reproducing the
// scan's lowest-index tie-break among zero stamps.
type LRU struct {
	ways int
	// prev/next hold the within-set chain as flat slot indices
	// (set*ways+way), -1 terminated. head is the set's LRU end, tail
	// its MRU end.
	prev, next []int32
	head, tail []int32
	// fresh marks ways that have never been touched since their last
	// invalidation (the old scheme's stamp == 0).
	fresh []bool
}

// NewLRU returns an LRU policy for the given geometry.
func NewLRU(sets, ways int) Policy {
	p := &LRU{
		ways:  ways,
		prev:  make([]int32, sets*ways),
		next:  make([]int32, sets*ways),
		head:  make([]int32, sets),
		tail:  make([]int32, sets),
		fresh: make([]bool, sets*ways),
	}
	for s := 0; s < sets; s++ {
		base := s * ways
		for w := 0; w < ways; w++ {
			p.prev[base+w] = int32(base + w - 1)
			p.next[base+w] = int32(base + w + 1)
			p.fresh[base+w] = true
		}
		p.prev[base] = -1
		p.next[base+ways-1] = -1
		p.head[s] = int32(base)
		p.tail[s] = int32(base + ways - 1)
	}
	return p
}

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// unlink removes slot i from set's chain.
func (p *LRU) unlink(set int, i int32) {
	if p.prev[i] >= 0 {
		p.next[p.prev[i]] = p.next[i]
	} else {
		p.head[set] = p.next[i]
	}
	if p.next[i] >= 0 {
		p.prev[p.next[i]] = p.prev[i]
	} else {
		p.tail[set] = p.prev[i]
	}
}

//bv:steadystate
func (p *LRU) touch(set, way int) {
	i := int32(set*p.ways + way)
	p.fresh[i] = false
	if p.tail[set] == i {
		return
	}
	p.unlink(set, i)
	t := p.tail[set]
	p.prev[i] = t
	p.next[i] = -1
	p.next[t] = i
	p.tail[set] = i
}

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int) { p.touch(set, way) }

// OnFill implements Policy.
func (p *LRU) OnFill(set, way int) { p.touch(set, way) }

// OnInvalidate implements Policy. The way rejoins the fresh region at
// the LRU head, inserted in ascending way order so Victim's tie-break
// among fresh ways stays the lowest index, exactly as the stamp scan
// tie-broke among zero stamps.
func (p *LRU) OnInvalidate(set, way int) {
	i := int32(set*p.ways + way)
	if p.fresh[i] {
		// Already in the fresh region, and fresh-region order is
		// maintained on insertion: nothing to do.
		return
	}
	p.unlink(set, i)
	p.fresh[i] = true
	at := p.head[set]
	for at >= 0 && p.fresh[at] && at < i {
		at = p.next[at]
	}
	if at < 0 { // chain exhausted: append at tail
		t := p.tail[set]
		p.prev[i] = t
		p.next[i] = -1
		if t >= 0 {
			p.next[t] = i
		} else { // ways == 1: the chain emptied on unlink
			p.head[set] = i
		}
		p.tail[set] = i
		return
	}
	// Insert before at.
	p.prev[i] = p.prev[at]
	p.next[i] = at
	if p.prev[at] >= 0 {
		p.next[p.prev[at]] = i
	} else {
		p.head[set] = i
	}
	p.prev[at] = i
}

// Victim implements Policy: the LRU end of the chain.
func (p *LRU) Victim(set int) int { return int(p.head[set]) - set*p.ways }

// StackOrder returns the ways of a set ordered from MRU to LRU. Used by
// tests and by the VSC functional model, which replaces from the bottom
// of the LRU stack. Fresh ways sort after every touched way, in
// ascending way order, matching the historical stable sort by
// descending stamp.
func (p *LRU) StackOrder(set int) []int {
	base := set * p.ways
	order := make([]int, 0, p.ways)
	for i := p.tail[set]; i >= 0; i = p.prev[i] {
		order = append(order, int(i)-base)
	}
	// Walking MRU->LRU reverses the fresh region's ascending-order
	// invariant; restore it.
	lo := len(order)
	for lo > 0 && p.fresh[base+order[lo-1]] {
		lo--
	}
	for l, r := lo, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return order
}

// NRU is the 1-bit not-recently-used policy the paper uses as the LLC
// default: each line has one bit, set on use; the victim is the first
// way (left to right) whose bit is clear; when all bits are set they are
// all cleared first.
type NRU struct {
	ways int
	used []bool
}

// NewNRU returns an NRU policy.
func NewNRU(sets, ways int) Policy {
	return &NRU{ways: ways, used: make([]bool, sets*ways)}
}

// Name implements Policy.
func (*NRU) Name() string { return "nru" }

// OnHit implements Policy.
func (p *NRU) OnHit(set, way int) { p.used[set*p.ways+way] = true }

// OnFill implements Policy.
func (p *NRU) OnFill(set, way int) { p.used[set*p.ways+way] = true }

// OnInvalidate implements Policy.
func (p *NRU) OnInvalidate(set, way int) { p.used[set*p.ways+way] = false }

// NotRecent implements Recency.
func (p *NRU) NotRecent(set, way int) bool { return !p.used[set*p.ways+way] }

// Victim implements Policy.
func (p *NRU) Victim(set int) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if !p.used[base+w] {
			return w
		}
	}
	for w := 0; w < p.ways; w++ {
		p.used[base+w] = false
	}
	return 0
}

// Random picks victims uniformly with a deterministic xorshift
// generator.
type Random struct {
	ways  int
	state uint64
}

// NewRandom returns a random-replacement policy seeded with seed.
func NewRandom(sets, ways int, seed uint64) *Random {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Random{ways: ways, state: seed}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// OnHit implements Policy (no state).
func (*Random) OnHit(set, way int) {}

// OnFill implements Policy (no state).
func (*Random) OnFill(set, way int) {}

// OnInvalidate implements Policy (no state).
func (*Random) OnInvalidate(set, way int) {}

// Next returns the next pseudo-random 64-bit value.
func (p *Random) Next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state
}

// Victim implements Policy.
func (p *Random) Victim(set int) int { return int(p.Next() % uint64(p.ways)) }

// SRRIP is static re-reference interval prediction (Jaleel et al., ISCA
// 2010) with 2-bit re-reference prediction values (RRPV). Lines fill at
// RRPV=2 ("long"), promote to 0 on hit, and the victim is any line at
// RRPV=3, aging the whole set until one exists.
type SRRIP struct {
	ways int
	rrpv []uint8
}

// rrpvMax is the distant re-reference value for 2-bit SRRIP.
const rrpvMax = 3

// NewSRRIP returns an SRRIP policy.
func NewSRRIP(sets, ways int) Policy {
	p := &SRRIP{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

// Name implements Policy.
func (*SRRIP) Name() string { return "srrip" }

// OnHit implements Policy.
func (p *SRRIP) OnHit(set, way int) { p.rrpv[set*p.ways+way] = 0 }

// OnFill implements Policy.
func (p *SRRIP) OnFill(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax - 1 }

// OnInvalidate implements Policy.
func (p *SRRIP) OnInvalidate(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax }

// Victim implements Policy.
func (p *SRRIP) Victim(set int) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}
