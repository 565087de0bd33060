package ccache

import "fmt"

// LineInfo is the exported view of one logical line, consumed by the
// lockstep checker (internal/check) and by forensic dumps.
type LineInfo struct {
	Addr  uint64
	Valid bool
	Dirty bool
	Segs  int
}

// Inspector exposes an organization's tag state for external
// verification; every organization here implements it.
type Inspector interface {
	// InspectSet appends the set's strictly-managed (demand) lines to
	// base, indexed by physical way where the organization has that
	// notion, and any opportunistic victim lines sharing those ways to
	// victim (left empty by organizations without a victim partition).
	// Both slices are returned so callers can reuse buffers across
	// calls.
	InspectSet(set int, base, victim []LineInfo) (bout, vout []LineInfo)
	// Integrity scans the organization's structural invariants and
	// reports the first violation.
	Integrity() error
	// CorruptTag supports deterministic fault injection: it flips bits
	// in a stored tag. slot indexes the organization's internal tag
	// slots (base ways first, then any victim or extra logical slots);
	// out-of-range or invalid slots return false and leave the state
	// untouched.
	CorruptTag(set, slot int, xor uint64) bool
}

// Faulter is implemented by organizations that record internal protocol
// faults instead of panicking; Fault returns the first one observed, or
// nil.
type Faulter interface {
	Fault() error
}

// Unwrapper is implemented by wrappers (checkers, fault injectors) that
// decorate another organization.
type Unwrapper interface {
	Unwrap() Org
}

// Root follows Unwrap until it reaches the innermost organization.
func Root(o Org) Org {
	for {
		u, ok := o.(Unwrapper)
		if !ok {
			return o
		}
		o = u.Unwrap()
	}
}

// integrityScan runs the structural invariants every organization
// shares, over its Inspector view: lines must map to the set that
// stores them, no line may be resident twice in a set, paired base and
// victim lines must fit one physical way, and (when cleanVictims is
// set) victim lines must be clean. Organizations without a victim
// partition are instead held to the set-level segment budget.
func integrityScan(name string, sets, ways int, insp Inspector, cleanVictims bool) error {
	var base, victim []LineInfo
	for set := 0; set < sets; set++ {
		base, victim = insp.InspectSet(set, base[:0], victim[:0])
		segSum := 0
		for w, li := range base {
			if !li.Valid {
				continue
			}
			segSum += li.Segs
			if int(li.Addr&uint64(sets-1)) != set {
				return fmt.Errorf("ccache: %s integrity: base slot %d of set %d holds line %#x, which maps to set %d",
					name, w, set, li.Addr, li.Addr&uint64(sets-1))
			}
		}
		for w, li := range victim {
			if !li.Valid {
				continue
			}
			if int(li.Addr&uint64(sets-1)) != set {
				return fmt.Errorf("ccache: %s integrity: victim slot %d of set %d holds line %#x, which maps to set %d",
					name, w, set, li.Addr, li.Addr&uint64(sets-1))
			}
			if cleanVictims && li.Dirty {
				return fmt.Errorf("ccache: %s integrity: dirty victim line %#x in inclusive mode (set %d slot %d)",
					name, li.Addr, set, w)
			}
			if w < len(base) && base[w].Valid && base[w].Segs+li.Segs > WaySegments {
				return fmt.Errorf("ccache: %s integrity: way overflow in set %d way %d: base %#x (%d segs) + victim %#x (%d segs) > %d",
					name, set, w, base[w].Addr, base[w].Segs, li.Addr, li.Segs, WaySegments)
			}
		}
		if len(victim) == 0 && segSum > ways*WaySegments {
			return fmt.Errorf("ccache: %s integrity: set %d overflow: %d segments in %d",
				name, set, segSum, ways*WaySegments)
		}
		if addr, ok := findDuplicate(base, victim); ok {
			return fmt.Errorf("ccache: %s integrity: line %#x resident twice in set %d", name, addr, set)
		}
	}
	return nil
}

// findDuplicate reports an address present in more than one valid slot
// of the set. Slot counts are small (at most a few dozen), so the
// quadratic scan is cheaper than building a map per set.
func findDuplicate(base, victim []LineInfo) (uint64, bool) {
	all := func(i int) LineInfo {
		if i < len(base) {
			return base[i]
		}
		return victim[i-len(base)]
	}
	n := len(base) + len(victim)
	for i := 0; i < n; i++ {
		a := all(i)
		if !a.Valid {
			continue
		}
		for j := i + 1; j < n; j++ {
			if b := all(j); b.Valid && b.Addr == a.Addr {
				return a.Addr, true
			}
		}
	}
	return 0, false
}

// InspectSet implements Inspector: base ways first, then the victim
// lines sharing them, both indexed by physical way. Without a Victim
// Cache the victim slice stays empty.
func (c *BaseVictim) InspectSet(set int, base, victim []LineInfo) ([]LineInfo, []LineInfo) {
	for i := set * c.cfg.Ways; i < (set+1)*c.cfg.Ways; i++ {
		base = append(base, c.base.info(i))
	}
	for i := set * c.victimWays; i < (set+1)*c.victimWays; i++ {
		victim = append(victim, c.victim.info(i))
	}
	return base, victim
}

// Integrity implements Inspector; it covers the invariants the package
// documentation lists for Base-Victim.
func (c *BaseVictim) Integrity() error {
	return integrityScan(c.Name(), c.sets, c.cfg.Ways, c, c.cfg.Inclusive)
}

// CorruptTag implements Inspector; slots 0..Ways-1 address the
// Baseline Cache, slots Ways..2*Ways-1 the Victim Cache.
func (c *BaseVictim) CorruptTag(set, slot int, xor uint64) bool {
	if slot < c.cfg.Ways {
		return c.base.corrupt(set, c.cfg.Ways, slot, xor)
	}
	return c.victim.corrupt(set, c.victimWays, slot-c.cfg.Ways, xor)
}

// Fault implements Faulter: it reports the first protocol fault the
// organization absorbed (a write hit on an inclusive Victim Cache line,
// which a correct hierarchy can never produce).
func (c *BaseVictim) Fault() error { return c.fault }

// InspectSet implements Inspector: the even logical slot of each
// physical way reports as base, the odd slot as victim, so the pairing
// invariant base[w].Segs+victim[w].Segs <= WaySegments lines up.
func (c *twoTagBase) InspectSet(set int, base, victim []LineInfo) ([]LineInfo, []LineInfo) {
	for i := set * c.lways; i < (set+1)*c.lways; i += 2 {
		base = append(base, c.tags.info(i))
		victim = append(victim, c.tags.info(i+1))
	}
	return base, victim
}

// Integrity implements Inspector. Two-tag victims may be dirty: both
// logical lines of a way are demand storage.
func (c *twoTagBase) Integrity() error {
	return integrityScan("twotag", c.sets, c.cfg.Ways, c, false)
}

// CorruptTag implements Inspector; slots are the logical ways.
func (c *twoTagBase) CorruptTag(set, slot int, xor uint64) bool {
	return c.tags.corrupt(set, c.lways, slot, xor)
}

// InspectSet implements Inspector; VSC has no victim partition, so all
// logical lines report as base and the set-level segment budget
// applies.
func (c *VSCFunctional) InspectSet(set int, base, victim []LineInfo) ([]LineInfo, []LineInfo) {
	for i := set * c.lways; i < (set+1)*c.lways; i++ {
		base = append(base, c.tags.info(i))
	}
	return base, victim
}

// Integrity implements Inspector.
func (c *VSCFunctional) Integrity() error {
	return integrityScan(c.Name(), c.sets, c.cfg.Ways, c, false)
}

// CorruptTag implements Inspector; slots are the logical ways.
func (c *VSCFunctional) CorruptTag(set, slot int, xor uint64) bool {
	return c.tags.corrupt(set, c.lways, slot, xor)
}
