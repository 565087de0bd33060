// Package check is the runtime verification substrate for the LLC
// organizations: a shadow differential checker that runs a reference
// uncompressed cache in lockstep with any organization, structured
// violation reports with forensic context, and a deterministic
// fault-injection layer (inject.go) used to validate the checker
// itself.
//
// The checker encodes the paper's central claim as a machine-checked
// invariant: Base-Victim's Baseline Cache state must equal an
// uncompressed cache running the same access stream ("Tag-0 mirror",
// Section IV.A), so its hit count can never fall below the baseline's.
// Organizations without that guarantee (the two-tag caches, VSC) are
// held only to their structural invariants: way capacity, victim
// cleanliness, set mapping, and no duplicate residency.
package check

import (
	"fmt"
	"strings"

	"basevictim/internal/cache"
	"basevictim/internal/ccache"
	"basevictim/internal/policy"
)

// Level selects how much verification runs per operation.
type Level int

// Levels, from free to exhaustive.
const (
	// Off disables the checker entirely.
	Off Level = iota
	// Cheap runs the lockstep shadow and every check scoped to the
	// touched set: O(ways) per operation.
	Cheap
	// Full adds periodic whole-cache sweeps (tag mirror over every set
	// plus the organization's own integrity scan) and a final sweep,
	// auto-downgrading to Cheap past Config.FullBudget operations.
	Full
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Cheap:
		return "cheap"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel parses a -check flag value. The empty string means Off.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "cheap":
		return Cheap, nil
	case "full":
		return Full, nil
	default:
		return Off, fmt.Errorf("check: unknown level %q (valid: off, cheap, full)", s)
	}
}

// Defaults for Config's zero values.
const (
	DefaultFullBudget    = 5_000_000
	DefaultSweepEvery    = 4096
	DefaultRingSize      = 16
	DefaultMaxViolations = 8
)

// Config tunes a Checker.
type Config struct {
	Level Level
	// FullBudget caps the operations verified at Full before the
	// checker downgrades itself to Cheap with a notice (0 =
	// DefaultFullBudget).
	FullBudget uint64
	// SweepEvery is the operation period of whole-cache sweeps at Full
	// (0 = DefaultSweepEvery).
	SweepEvery uint64
	// RingSize is the length of the last-N operation ring attached to
	// violations (0 = DefaultRingSize).
	RingSize int
	// MaxViolations stops recording after this many violations (0 =
	// DefaultMaxViolations); the first one is what Err returns.
	MaxViolations int
}

func (c Config) fullBudget() uint64 {
	if c.FullBudget == 0 {
		return DefaultFullBudget
	}
	return c.FullBudget
}

func (c Config) sweepEvery() uint64 {
	if c.SweepEvery == 0 {
		return DefaultSweepEvery
	}
	return c.SweepEvery
}

// AccessRecord is one entry of the forensic ring buffer: an Access or
// Fill the checker observed.
type AccessRecord struct {
	Index     uint64 // 1-based operation index
	Addr      uint64
	Fill      bool // Fill rather than Access
	Write     bool // Access write, or dirty Fill
	Segs      int
	Hit       bool
	VictimHit bool
}

func (a AccessRecord) String() string {
	op := "read "
	switch {
	case a.Fill && a.Write:
		op = "fill! "
	case a.Fill:
		op = "fill "
	case a.Write:
		op = "write"
	}
	out := fmt.Sprintf("#%d %s %#x segs=%d", a.Index, op, a.Addr, a.Segs)
	if a.VictimHit {
		return out + " victim-hit"
	}
	if a.Hit {
		return out + " hit"
	}
	return out + " miss"
}

// Violation is a structured checker failure: which invariant broke,
// where, and the state needed to debug it. It implements error.
type Violation struct {
	// Kind names the broken invariant: "tag-mismatch", "dirty-mismatch",
	// "hit-divergence", "hit-shortfall", "way-overflow", "set-overflow",
	// "dirty-victim", "duplicate-line", "unknown-line", "size-mismatch",
	// "dropped-backinval", "skipped-writeback", "integrity", "org-fault".
	Kind string
	// Org is the checked organization's name.
	Org string
	// OpIndex is the 1-based count of operations (Access + Fill)
	// completed when the violation was detected.
	OpIndex uint64
	// Addr is the line address involved (0 when not line-specific).
	Addr uint64
	// Set is the cache set the violation was found in.
	Set int
	// Detail is a human-readable description of the mismatch.
	Detail string
	// Base and Victim dump the organization's view of the set; Shadow
	// dumps the reference cache's view (nil for structural-only orgs).
	Base, Victim []ccache.LineInfo
	Shadow       []cache.Line
	// Recent is the last-N operation ring, oldest first.
	Recent []AccessRecord
}

// Error implements error with a multi-line forensic report.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s violation in %s at op %d (set %d", v.Kind, v.Org, v.OpIndex, v.Set)
	if v.Addr != 0 {
		fmt.Fprintf(&b, ", line %#x", v.Addr)
	}
	fmt.Fprintf(&b, "): %s", v.Detail)
	dumpLine := func(label string, i int, li ccache.LineInfo) {
		if !li.Valid {
			return
		}
		d := ' '
		if li.Dirty {
			d = '*'
		}
		fmt.Fprintf(&b, "\n  %s[%2d] %#x%c segs=%d", label, i, li.Addr, d, li.Segs)
	}
	for i, li := range v.Base {
		dumpLine("base  ", i, li)
	}
	for i, li := range v.Victim {
		dumpLine("victim", i, li)
	}
	for i, l := range v.Shadow {
		if !l.Valid {
			continue
		}
		d := ' '
		if l.Dirty {
			d = '*'
		}
		fmt.Fprintf(&b, "\n  shadow[%2d] %#x%c", i, l.Tag, d)
	}
	for _, r := range v.Recent {
		fmt.Fprintf(&b, "\n  %s", r)
	}
	return b.String()
}

// Checker wraps an organization and verifies it operation by operation
// against a reference uncompressed cache.Cache fed the same stream. It
// implements ccache.Org, so it drops transparently between the
// hierarchy and any organization.
type Checker struct {
	inner ccache.Org
	root  ccache.Org // innermost org, past any injector
	insp  ccache.Inspector
	shad  *cache.Cache
	cfg   Config
	level Level

	sets, ways int
	inclusive  bool

	// exact: inner is uncompressed — it must match the shadow exactly,
	// hit for hit. guarantee: inner is Base-Victim — the Baseline Cache
	// mirrors the shadow and cumulative hits dominate it. Neither:
	// structural checks only (twotag, vsc).
	exact, guarantee bool
	// compareDirty: dirty bits must also mirror. Non-inclusive
	// Base-Victim promotes dirty victims the shadow never saw, so there
	// the dirty comparison is skipped.
	compareDirty bool

	ops      uint64
	ring     []AccessRecord
	ringNext int
	ringFull bool
	expected *segMap // line -> compressed size last handed to the org
	// memo caches, per logical slot, the (addr, segs) pair that last
	// passed the expected-size checks, so an unchanged line is revisited
	// with one sequential read instead of a random probe into expected.
	// Entries are keyed (addr+1, 0 = none) and cleared whenever the
	// expected entry for that address changes (write hit, eviction);
	// whole-cache sweeps bypass the memo entirely.
	memo       []segSlot
	memoWays   int // logical slots per part (base/victim) per set
	violations []*Violation
	notices    []string
	downgraded bool
	faulted    bool

	scratchBase, scratchVictim []ccache.LineInfo
	scratchShadow              []cache.Line
}

// New builds a checker around inner. ccfg must be the configuration the
// innermost organization was built with: the shadow reference cache is
// constructed from its geometry and replacement-policy factory. The
// level must not be Off.
func New(inner ccache.Org, ccfg ccache.Config, cfg Config) (*Checker, error) {
	if cfg.Level == Off {
		return nil, fmt.Errorf("check: checker built with level off")
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	root := ccache.Root(inner)
	insp, ok := root.(ccache.Inspector)
	if !ok {
		return nil, fmt.Errorf("check: organization %s does not support inspection", root.Name())
	}
	pf := ccfg.Policy
	if pf == nil {
		pf = policy.NewNRU
	}
	shad, err := cache.New(cache.Geometry{SizeBytes: ccfg.SizeBytes, Ways: ccfg.Ways}, pf)
	if err != nil {
		return nil, fmt.Errorf("check: building shadow: %w", err)
	}
	c := &Checker{
		inner:     inner,
		root:      root,
		insp:      insp,
		shad:      shad,
		cfg:       cfg,
		level:     cfg.Level,
		sets:      inner.Sets(),
		ways:      inner.Ways(),
		inclusive: ccfg.Inclusive,
		ring:      make([]AccessRecord, cfg.RingSize),
		expected:  newSegMap(),
		// VSC exposes up to 2x logical ways per part; size for the max.
		memoWays: 2 * inner.Ways(),
	}
	c.memo = make([]segSlot, c.sets*2*c.memoWays)
	switch root.Name() {
	case "uncompressed":
		c.exact = true
		c.compareDirty = true
	case "basevictim":
		c.guarantee = true
		c.compareDirty = ccfg.Inclusive
	}
	return c, nil
}

// Unwrap implements ccache.Unwrapper.
func (c *Checker) Unwrap() ccache.Org { return c.inner }

// Name implements ccache.Org.
func (c *Checker) Name() string { return c.inner.Name() }

// Contains implements ccache.Org.
func (c *Checker) Contains(lineAddr uint64) bool { return c.inner.Contains(lineAddr) }

// ContainsBase implements ccache.Org.
func (c *Checker) ContainsBase(lineAddr uint64) bool { return c.inner.ContainsBase(lineAddr) }

// Stats implements ccache.Org.
func (c *Checker) Stats() *ccache.Stats { return c.inner.Stats() }

// Sets implements ccache.Org.
func (c *Checker) Sets() int { return c.sets }

// Ways implements ccache.Org.
func (c *Checker) Ways() int { return c.ways }

// LogicalLines implements ccache.Org.
func (c *Checker) LogicalLines() int { return c.inner.LogicalLines() }

// HintEviction implements ccache.EvictionHinter: the hint reaches the
// inner organization unchanged, and mirrors into the shadow's policy
// for residents so hint-aware policies (CHAR) stay in lockstep.
func (c *Checker) HintEviction(lineAddr uint64, dead bool) {
	if h, ok := c.inner.(ccache.EvictionHinter); ok {
		h.HintEviction(lineAddr, dead)
	}
	hinter, ok := c.shad.Policy().(policy.Hinter)
	if !ok {
		return
	}
	if way, hit := c.shad.Probe(lineAddr); hit {
		hinter.OnEvictionHint(c.shad.SetIndex(lineAddr), way, dead)
	}
}

// Ops returns the number of operations (Access + Fill) verified.
func (c *Checker) Ops() uint64 { return c.ops }

// Violations returns every recorded violation, first (= Err) first.
func (c *Checker) Violations() []*Violation { return c.violations }

// Notices returns non-fatal notices (e.g. the full->cheap downgrade).
func (c *Checker) Notices() []string { return c.notices }

// Err returns the first violation, or nil.
func (c *Checker) Err() error {
	if len(c.violations) > 0 {
		return c.violations[0]
	}
	return nil
}

// Final runs a whole-cache sweep (regardless of level — it is a
// one-time O(sets*ways) cost) and returns Err.
func (c *Checker) Final() error {
	if len(c.violations) == 0 {
		c.sweep()
	}
	return c.Err()
}

// Access implements ccache.Org: forward, mirror into the shadow, then
// verify.
func (c *Checker) Access(lineAddr uint64, write bool, segs int) *ccache.Result {
	c.ops++
	r := c.inner.Access(lineAddr, write, segs)
	c.record(AccessRecord{Index: c.ops, Addr: lineAddr, Write: write, Segs: segs, Hit: r.Hit, VictimHit: r.VictimHit})
	shadowHit := c.shad.Access(lineAddr, write)

	if c.exact && r.Hit != shadowHit {
		c.report("hit-divergence", lineAddr,
			fmt.Sprintf("uncompressed org hit=%v but reference hit=%v", r.Hit, shadowHit))
	}
	if c.guarantee {
		baseHit := r.Hit && !r.VictimHit
		if baseHit != shadowHit {
			c.report("hit-divergence", lineAddr,
				fmt.Sprintf("Baseline Cache hit=%v but reference hit=%v (mirror property)", baseHit, shadowHit))
		}
	}
	if r.Hit && !shadowHit {
		// The organization served from extra capacity (a victim line or
		// a compressed slot) where the reference missed; the reference
		// cache running this stream would now fetch the line from
		// memory, so mirror that fill. For Base-Victim this is exactly
		// the victim-hit promotion of Section IV.B.2.
		ev := c.shad.Fill(lineAddr, write, false)
		c.crossCheckEviction(lineAddr, ev, r)
	}
	c.noteEvictions(r)
	if write && r.Hit {
		c.expected.put(lineAddr, clampSegs(segs))
		c.memoForget(lineAddr)
	}
	// A clean read hit that also hit in the reference moves no data and
	// flips no tag or dirty bit in either cache, so the touched set is
	// byte-identical to the last time it was checked — skip the scan.
	quiet := r.Hit && shadowHit && !write && !r.VictimHit &&
		r.DataMoves == 0 && !r.PartnerWrite &&
		len(r.Evicted) == 0 && len(r.Writebacks) == 0 && len(r.BackInvals) == 0
	c.afterOp(lineAddr, r, quiet)
	return r
}

// Fill implements ccache.Org.
func (c *Checker) Fill(lineAddr uint64, segs int, dirty bool) *ccache.Result {
	c.ops++
	r := c.inner.Fill(lineAddr, segs, dirty)
	c.record(AccessRecord{Index: c.ops, Addr: lineAddr, Fill: true, Write: dirty, Segs: segs})
	if _, hit := c.shad.Probe(lineAddr); !hit {
		ev := c.shad.Fill(lineAddr, dirty, false)
		c.crossCheckEviction(lineAddr, ev, r)
	}
	// A fill over a reference-resident line means the organization
	// missed a line the reference holds — already reported as
	// hit-divergence by the preceding Access; skip the shadow fill so
	// the reference's replacement state is not corrupted further.
	c.noteEvictions(r)
	c.expected.put(lineAddr, clampSegs(segs))
	c.memoForget(lineAddr)
	c.afterOp(lineAddr, r, false)
	return r
}

// noteEvictions forgets ground-truth sizes of lines that left the LLC.
func (c *Checker) noteEvictions(r *ccache.Result) {
	for _, a := range r.Evicted {
		c.expected.del(a)
		c.memoForget(a)
	}
}

// memoForget drops any memoized validation of addr (confined to its
// set: evictions and write hits only mutate the set they map to), so
// the next scan re-probes the ground truth.
func (c *Checker) memoForget(addr uint64) {
	lo := int(addr&uint64(c.sets-1)) * 2 * c.memoWays
	for i := lo; i < lo+2*c.memoWays; i++ {
		if c.memo[i].key == addr+1 {
			c.memo[i] = segSlot{}
		}
	}
}

// crossCheckEviction verifies the event protocol against the shadow:
// when the reference evicts a line, an organization with the mirror
// property must emit the matching back-invalidation (inclusive mode)
// and, for dirty lines, the matching writeback. This pins down dropped
// back-invalidations and skipped writebacks within one operation.
func (c *Checker) crossCheckEviction(lineAddr uint64, ev cache.Eviction, r *ccache.Result) {
	if !ev.Valid || !(c.exact || (c.guarantee && c.inclusive)) {
		return
	}
	if !containsAddr(r.BackInvals, ev.Addr) {
		c.report("dropped-backinval", ev.Addr,
			fmt.Sprintf("reference evicted %#x but no back-invalidation was emitted (got %v)", ev.Addr, r.BackInvals))
	}
	if ev.Dirty && !containsAddr(r.Writebacks, ev.Addr) {
		c.report("skipped-writeback", ev.Addr,
			fmt.Sprintf("reference evicted dirty %#x but no writeback was emitted (got %v)", ev.Addr, r.Writebacks))
	}
}

// afterOp runs the per-operation checks after the shadow is in sync.
// quiet marks an operation that changed no tag, size, or dirty state in
// either cache, letting the touched-set scan be skipped.
func (c *Checker) afterOp(lineAddr uint64, r *ccache.Result, quiet bool) {
	if (c.guarantee || c.exact) && len(c.violations) == 0 {
		if oh, sh := c.inner.Stats().Hits, c.shad.Stats.Hits; oh < sh {
			c.report("hit-shortfall", lineAddr,
				fmt.Sprintf("cumulative hits %d fell below the reference's %d (paper guarantee: >=)", oh, sh))
		}
	}
	if !c.faulted {
		if f, ok := c.root.(ccache.Faulter); ok {
			if err := f.Fault(); err != nil {
				c.faulted = true
				c.report("org-fault", lineAddr, err.Error())
			}
		}
	}
	if !quiet {
		c.checkSet(int(lineAddr&uint64(c.sets-1)), true)
	}
	if c.level == Full {
		if c.ops > c.cfg.fullBudget() {
			c.level = Cheap
			c.downgraded = true
			c.notices = append(c.notices, fmt.Sprintf(
				"check: full checking downgraded to cheap after %d operations (budget %d); rerun with a higher budget for whole-cache sweeps",
				c.ops, c.cfg.fullBudget()))
		} else if c.ops%c.cfg.sweepEvery() == 0 {
			c.sweep()
		}
	}
}

// checkSet verifies one set: structural invariants, ground-truth
// compressed sizes, and (for mirror organizations) tag equality with
// the shadow. O(ways), so it runs on every operation at Cheap and up.
// useMemo lets per-operation calls skip the expected-size probe for
// slots whose line passed it unchanged last time; sweeps pass false to
// re-verify everything from the ground truth.
func (c *Checker) checkSet(set int, useMemo bool) {
	if len(c.violations) >= c.cfg.MaxViolations {
		return
	}
	base, victim := c.insp.InspectSet(set, c.scratchBase[:0], c.scratchVictim[:0])
	c.scratchBase, c.scratchVictim = base, victim

	segSum := 0
	for p, part := range [2][]ccache.LineInfo{base, victim} {
		for w, li := range part {
			if !li.Valid {
				continue
			}
			if int(li.Addr&uint64(c.sets-1)) != set {
				c.reportSet("unknown-line", li.Addr, set,
					fmt.Sprintf("resident line %#x maps to set %d, not set %d (tag corruption?)",
						li.Addr, li.Addr&uint64(c.sets-1), set))
				continue
			}
			mi := -1
			if w < c.memoWays {
				mi = (set*2+p)*c.memoWays + w
				if useMemo && c.memo[mi].key == li.Addr+1 && int(c.memo[mi].segs) == li.Segs {
					continue
				}
			}
			if exp, ok := c.expected.get(li.Addr); !ok {
				c.reportSet("unknown-line", li.Addr, set,
					fmt.Sprintf("resident line %#x was never filled (tag corruption?)", li.Addr))
			} else if !c.exact && li.Segs != exp {
				// The uncompressed org stores lines raw, so the size
				// comparison only applies to compressed organizations.
				c.reportSet("size-mismatch", li.Addr, set,
					fmt.Sprintf("line %#x stored at %d segments but the compressor reported %d", li.Addr, li.Segs, exp))
			} else if mi >= 0 {
				c.memo[mi] = segSlot{key: li.Addr + 1, segs: int8(li.Segs)}
			}
		}
	}
	for w, li := range victim {
		if !li.Valid {
			continue
		}
		if c.guarantee && c.inclusive && li.Dirty {
			c.reportSet("dirty-victim", li.Addr, set,
				fmt.Sprintf("victim line %#x is dirty in inclusive mode", li.Addr))
		}
		if w < len(base) && base[w].Valid {
			if base[w].Segs+li.Segs > ccache.WaySegments {
				c.reportSet("way-overflow", li.Addr, set,
					fmt.Sprintf("way %d holds %d+%d segments > %d", w, base[w].Segs, li.Segs, ccache.WaySegments))
			}
			if base[w].Addr == li.Addr {
				c.reportSet("duplicate-line", li.Addr, set,
					fmt.Sprintf("line %#x resident in both slots of way %d", li.Addr, w))
			}
		}
	}
	if len(victim) == 0 {
		for _, li := range base {
			if li.Valid {
				segSum += li.Segs
			}
		}
		if segSum > c.ways*ccache.WaySegments {
			c.reportSet("set-overflow", 0, set,
				fmt.Sprintf("set holds %d segments in a %d-segment budget", segSum, c.ways*ccache.WaySegments))
		}
	}

	if !(c.guarantee || c.exact) {
		return
	}
	shadow := c.shad.DumpSet(set, c.scratchShadow[:0])
	c.scratchShadow = shadow
	for w := 0; w < c.ways && w < len(base); w++ {
		b, s := base[w], shadow[w]
		switch {
		case b.Valid != s.Valid:
			c.reportSet("tag-mismatch", b.Addr, set,
				fmt.Sprintf("way %d valid=%v but reference valid=%v", w, b.Valid, s.Valid))
		case b.Valid && b.Addr != s.Tag:
			c.reportSet("tag-mismatch", b.Addr, set,
				fmt.Sprintf("way %d holds %#x but reference holds %#x", w, b.Addr, s.Tag))
		case b.Valid && c.compareDirty && b.Dirty != s.Dirty:
			c.reportSet("dirty-mismatch", b.Addr, set,
				fmt.Sprintf("way %d line %#x dirty=%v but reference dirty=%v", w, b.Addr, b.Dirty, s.Dirty))
		}
	}
}

// sweep checks every set plus the organization's own integrity scan.
func (c *Checker) sweep() {
	for set := 0; set < c.sets && len(c.violations) < c.cfg.MaxViolations; set++ {
		c.checkSet(set, false)
	}
	if len(c.violations) > 0 {
		return
	}
	if err := c.insp.Integrity(); err != nil {
		c.report("integrity", 0, err.Error())
	}
}

func (c *Checker) record(a AccessRecord) {
	c.ring[c.ringNext] = a
	c.ringNext++
	if c.ringNext == len(c.ring) {
		c.ringNext = 0
		c.ringFull = true
	}
}

func (c *Checker) ringSnapshot() []AccessRecord {
	var out []AccessRecord
	if c.ringFull {
		out = append(out, c.ring[c.ringNext:]...)
	}
	return append(out, c.ring[:c.ringNext]...)
}

func (c *Checker) report(kind string, addr uint64, detail string) {
	c.reportSet(kind, addr, int(addr&uint64(c.sets-1)), detail)
}

func (c *Checker) reportSet(kind string, addr uint64, set int, detail string) {
	if len(c.violations) >= c.cfg.MaxViolations {
		return
	}
	v := &Violation{
		Kind:    kind,
		Org:     c.root.Name(),
		OpIndex: c.ops,
		Addr:    addr,
		Set:     set,
		Detail:  detail,
		Recent:  c.ringSnapshot(),
	}
	v.Base, v.Victim = c.insp.InspectSet(set, nil, nil)
	if c.guarantee || c.exact {
		v.Shadow = c.shad.DumpSet(set, nil)
	}
	c.violations = append(c.violations, v)
}

func containsAddr(s []uint64, a uint64) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// clampSegs mirrors ccache's size normalization into [0, WaySegments].
func clampSegs(segs int) int {
	if segs < 0 {
		return 0
	}
	if segs > ccache.WaySegments {
		return ccache.WaySegments
	}
	return segs
}
