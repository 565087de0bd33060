package check

import (
	"fmt"
	"strconv"
	"strings"

	"basevictim/internal/ccache"
)

// FaultKind names an injectable fault class.
type FaultKind string

// The four fault classes the checker must detect (one per consistency
// mechanism it implements).
const (
	// FaultTag flips a bit in a resident tag (tag-array corruption).
	FaultTag FaultKind = "tag"
	// FaultSize lies about the compressed size of the next filled line.
	FaultSize FaultKind = "size"
	// FaultBackInval drops the next back-invalidation event.
	FaultBackInval FaultKind = "backinval"
	// FaultWriteback drops the next writeback event.
	FaultWriteback FaultKind = "writeback"
)

// Fault is one scheduled fault: Kind arms at operation At (1-based
// Access+Fill count) and fires at the first opportunity after arming.
type Fault struct {
	Kind FaultKind
	At   uint64
}

// ParseSpec parses a comma-separated fault list such as
// "tag@1000,writeback@5000". A bare kind arms at the first operation.
func ParseSpec(spec string) ([]Fault, error) {
	var out []Fault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, at, hasAt := strings.Cut(part, "@")
		f := Fault{Kind: FaultKind(kind), At: 1}
		switch f.Kind {
		case FaultTag, FaultSize, FaultBackInval, FaultWriteback:
		default:
			return nil, fmt.Errorf("check: unknown fault kind %q (valid: tag, size, backinval, writeback)", kind)
		}
		if hasAt {
			n, err := strconv.ParseUint(at, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("check: bad fault index in %q (want kind@N with N >= 1)", part)
			}
			f.At = n
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("check: empty fault spec")
	}
	return out, nil
}

// tagXorBit is the bit flipped into corrupted tags. It sits far above
// any set-index bit, so a corrupted line still maps to the set that
// stores it and detection must come from the checker's bookkeeping, not
// from a trivial set-mismatch.
const tagXorBit = uint64(1) << 50

// Injector wraps an organization and injects the scheduled faults
// deterministically (the seed only picks which resident tag a tag fault
// corrupts). It implements ccache.Org, so the checker can wrap it and
// prove each fault class is detected.
type Injector struct {
	inner  ccache.Org
	faults []Fault
	fired  []bool
	rng    uint64
	ops    uint64

	lieNextFill   bool
	dropBackInval bool
	dropWriteback bool
}

// NewInjector builds an injector delivering faults into inner.
func NewInjector(inner ccache.Org, faults []Fault, seed uint64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{inner: inner, faults: faults, fired: make([]bool, len(faults)), rng: seed}
}

// Unwrap implements ccache.Unwrapper.
func (i *Injector) Unwrap() ccache.Org { return i.inner }

// Name implements ccache.Org.
func (i *Injector) Name() string { return i.inner.Name() }

// Contains implements ccache.Org.
func (i *Injector) Contains(lineAddr uint64) bool { return i.inner.Contains(lineAddr) }

// ContainsBase implements ccache.Org.
func (i *Injector) ContainsBase(lineAddr uint64) bool { return i.inner.ContainsBase(lineAddr) }

// Stats implements ccache.Org.
func (i *Injector) Stats() *ccache.Stats { return i.inner.Stats() }

// Sets implements ccache.Org.
func (i *Injector) Sets() int { return i.inner.Sets() }

// Ways implements ccache.Org.
func (i *Injector) Ways() int { return i.inner.Ways() }

// LogicalLines implements ccache.Org.
func (i *Injector) LogicalLines() int { return i.inner.LogicalLines() }

// HintEviction implements ccache.EvictionHinter.
func (i *Injector) HintEviction(lineAddr uint64, dead bool) {
	if h, ok := i.inner.(ccache.EvictionHinter); ok {
		h.HintEviction(lineAddr, dead)
	}
}

// Pending reports whether any scheduled fault has not fired yet (tests
// use it to assert the injection actually happened).
func (i *Injector) Pending() bool {
	for idx := range i.faults {
		if !i.fired[idx] {
			return true
		}
	}
	return i.lieNextFill || i.dropBackInval || i.dropWriteback
}

func (i *Injector) next() uint64 {
	// xorshift64: deterministic, seed-perturbed slot selection.
	i.rng ^= i.rng << 13
	i.rng ^= i.rng >> 7
	i.rng ^= i.rng << 17
	return i.rng
}

// arm activates every fault whose index has been reached.
func (i *Injector) arm() {
	for idx, f := range i.faults {
		if i.fired[idx] || i.ops < f.At {
			continue
		}
		switch f.Kind {
		case FaultTag:
			if i.corruptSomeTag() {
				i.fired[idx] = true
			}
		case FaultSize:
			i.lieNextFill = true
			i.fired[idx] = true
		case FaultBackInval:
			i.dropBackInval = true
			i.fired[idx] = true
		case FaultWriteback:
			i.dropWriteback = true
			i.fired[idx] = true
		}
	}
}

// corruptSomeTag flips tagXorBit in a pseudo-randomly chosen resident
// tag, scanning forward until one is found (false on an empty cache).
func (i *Injector) corruptSomeTag() bool {
	root := ccache.Root(i.inner)
	insp, ok := root.(ccache.Inspector)
	if !ok {
		return false
	}
	sets, slots := i.inner.Sets(), 4*i.inner.Ways()
	start := int(i.next() % uint64(sets))
	for ds := 0; ds < sets; ds++ {
		set := (start + ds) % sets
		for slot := 0; slot < slots; slot++ {
			if insp.CorruptTag(set, slot, tagXorBit) {
				return true
			}
		}
	}
	return false
}

// filter applies armed event drops to the operation's result.
func (i *Injector) filter(r *ccache.Result) {
	if i.dropBackInval && len(r.BackInvals) > 0 {
		r.BackInvals = r.BackInvals[1:]
		i.dropBackInval = false
	}
	if i.dropWriteback && len(r.Writebacks) > 0 {
		r.Writebacks = r.Writebacks[1:]
		i.dropWriteback = false
	}
}

// Access implements ccache.Org.
func (i *Injector) Access(lineAddr uint64, write bool, segs int) *ccache.Result {
	i.ops++
	r := i.inner.Access(lineAddr, write, segs)
	i.filter(r)
	i.arm()
	return r
}

// Fill implements ccache.Org.
func (i *Injector) Fill(lineAddr uint64, segs int, dirty bool) *ccache.Result {
	i.ops++
	if i.lieNextFill {
		i.lieNextFill = false
		segs = lieAbout(segs)
	}
	r := i.inner.Fill(lineAddr, segs, dirty)
	i.filter(r)
	i.arm()
	return r
}

// lieAbout returns a compressed size guaranteed to differ from the
// truth after clamping.
func lieAbout(segs int) int {
	s := clampSegs(segs)
	if s == 0 {
		return 4
	}
	return s - 1
}
