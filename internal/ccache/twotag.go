package ccache

import "basevictim/internal/policy"

// twoTagBase carries the state shared by the naive and modified
// two-tag organizations: 2N logical tags over N physical ways, managed
// by one replacement policy across all 2N logical ways. Logical way l
// maps to physical way l/2, slot l%2; the two slots of a physical way
// are partners and must fit in WaySegments together.
type twoTagBase struct {
	cfg   Config
	sets  int
	lways int      // logical ways = 2 * physical
	tags  tagStore // [set*lways + l]
	pol   policy.Policy
	stats Stats
	res   Result
}

func newTwoTagBase(cfg Config) (*twoTagBase, error) {
	sets, err := cfg.sets()
	if err != nil {
		return nil, err
	}
	lways := 2 * cfg.Ways
	return &twoTagBase{
		cfg:   cfg,
		sets:  sets,
		lways: lways,
		tags:  newTagStore(cfg.Arena, sets*lways),
		pol:   cfg.Policy(sets, lways),
	}, nil
}

func (c *twoTagBase) Sets() int     { return c.sets }
func (c *twoTagBase) Ways() int     { return c.cfg.Ways }
func (c *twoTagBase) Stats() *Stats { return &c.stats }

// Policy exposes the replacement policy for hint delivery.
func (c *twoTagBase) Policy() policy.Policy { return c.pol }

func (c *twoTagBase) set(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

// partnerOf returns the logical way sharing l's physical way.
func partnerOf(l int) int { return l ^ 1 }

func (c *twoTagBase) find(lineAddr uint64) int {
	return c.tags.find(c.set(lineAddr)*c.lways, c.lways, lineAddr)
}

// Contains implements Org.
func (c *twoTagBase) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// LogicalLines implements Org.
func (c *twoTagBase) LogicalLines() int { return c.tags.count() }

// HintEviction forwards an L2 reuse hint to the replacement policy if
// it listens (CHAR).
func (c *twoTagBase) HintEviction(lineAddr uint64, dead bool) {
	h, ok := c.pol.(policy.Hinter)
	if !ok {
		return
	}
	if l := c.find(lineAddr); l >= 0 {
		h.OnEvictionHint(c.set(lineAddr), l, dead)
	}
}

// fitsBeside reports whether a line of segs segments fits in logical
// way l beside l's partner.
func (c *twoTagBase) fitsBeside(set, l, segs int) bool {
	p := set*c.lways + partnerOf(l)
	return !c.tags.valid(p) || int(c.tags.segs[p])+segs <= WaySegments
}

// evict removes logical line l, emitting writeback and back-invalidate
// events (two-tag lines can be dirty and present in inner caches). The
// replacement policy runs over all logical ways and can nominate one
// that is already invalid (freeSlot skips invalid slots whose partner
// leaves no room), so an invalid slot is a silent no-op — emitting its
// stale tag would back-invalidate an unrelated resident line.
func (c *twoTagBase) evict(set, l int) {
	i := set*c.lways + l
	if !c.tags.valid(i) {
		return
	}
	addr := c.tags.addrs[i]
	c.stats.Evictions++
	c.res.Evicted = append(c.res.Evicted, addr)
	c.res.BackInvals = append(c.res.BackInvals, addr)
	c.stats.BackInvals++
	if c.tags.dirty[i] {
		c.res.Writebacks = append(c.res.Writebacks, addr)
		c.stats.Writebacks++
	}
	c.tags.invalidate(i)
	c.pol.OnInvalidate(set, l)
}

// victimizePartner evicts l's partner when a line of segs segments no
// longer fits beside it.
func (c *twoTagBase) victimizePartner(set, l, segs int) {
	if !c.fitsBeside(set, l, segs) {
		c.stats.PartnerEvictions++
		c.evict(set, partnerOf(l))
	}
}

// Access implements the shared two-tag lookup. A write hit updates the
// line's compressed size and victimizes the partner if the pair no
// longer fits.
func (c *twoTagBase) Access(lineAddr uint64, write bool, segs int) *Result {
	c.res.reset()
	c.stats.Accesses++
	set := c.set(lineAddr)
	l := c.find(lineAddr)
	if l < 0 {
		c.stats.Misses++
		if mo, ok := c.pol.(policy.MissObserver); ok {
			mo.OnMiss(set)
		}
		return &c.res
	}
	c.stats.Hits++
	c.stats.BaseHits++
	i := set*c.lways + l
	c.res.Hit = true
	if needsDecompression(int(c.tags.segs[i])) {
		c.res.Decompress = true
		c.stats.Decompressions++
	}
	c.pol.OnHit(set, l)
	if write {
		c.tags.dirty[i] = true
		segs = clampSegs(segs)
		c.victimizePartner(set, l, segs)
		c.tags.segs[i] = uint8(segs)
		if c.tags.valid(set*c.lways + partnerOf(l)) {
			c.res.PartnerWrite = true
			c.stats.PartnerWrites++
		}
	}
	return &c.res
}

// fillAt installs a line in logical way l, assuming space has been made.
func (c *twoTagBase) fillAt(set, l int, lineAddr uint64, segs int, dirty bool) {
	c.tags.put(set*c.lways+l, tag{addr: lineAddr, valid: true, dirty: dirty, segs: segs})
	c.pol.OnFill(set, l)
	if c.tags.valid(set*c.lways + partnerOf(l)) {
		c.res.PartnerWrite = true
		c.stats.PartnerWrites++
	}
}

// replace installs a line in logical way l over its current occupant,
// victimizing l's partner too if the line does not fit beside it.
func (c *twoTagBase) replace(set, l int, lineAddr uint64, segs int, dirty bool) {
	c.evict(set, l)
	c.victimizePartner(set, l, segs)
	c.fillAt(set, l, lineAddr, segs, dirty)
}

// freeSlot returns an invalid logical way whose partner leaves room for
// segs, or -1.
func (c *twoTagBase) freeSlot(set, segs int) int {
	for l := 0; l < c.lways; l++ {
		if !c.tags.valid(set*c.lways+l) && c.fitsBeside(set, l, segs) {
			return l
		}
	}
	return -1
}

// TwoTag is the naive two-tags-per-way compressed cache of Section III:
// the replacement policy runs over all logical lines, and when the
// incoming line does not fit beside the victim's partner, the partner
// is victimized too — even if it is the MRU line.
type TwoTag struct {
	twoTagBase
}

// NewTwoTag builds the naive two-tag organization.
func NewTwoTag(cfg Config) (*TwoTag, error) {
	b, err := newTwoTagBase(cfg)
	if err != nil {
		return nil, err
	}
	return &TwoTag{twoTagBase: *b}, nil
}

// Name implements Org.
func (c *TwoTag) Name() string { return "twotag" }

// Fill implements Org.
func (c *TwoTag) Fill(lineAddr uint64, segs int, dirty bool) *Result {
	c.res.reset()
	c.stats.Fills++
	segs = clampSegs(segs)
	set := c.set(lineAddr)
	if l := c.freeSlot(set, segs); l >= 0 {
		c.fillAt(set, l, lineAddr, segs, dirty)
		return &c.res
	}
	c.replace(set, c.pol.Victim(set), lineAddr, segs, dirty)
	return &c.res
}

// TwoTagModified is the ECM-inspired variant of Figure 7: the fill
// first searches the not-recently-used tags for one whose replacement
// does not displace a partner, choosing the candidate with the largest
// compressed size; only if none exists does it fall back to the naive
// partner-victimizing replacement.
type TwoTagModified struct {
	twoTagBase
}

// NewTwoTagModified builds the modified two-tag organization.
func NewTwoTagModified(cfg Config) (*TwoTagModified, error) {
	b, err := newTwoTagBase(cfg)
	if err != nil {
		return nil, err
	}
	return &TwoTagModified{twoTagBase: *b}, nil
}

// Name implements Org.
func (c *TwoTagModified) Name() string { return "twotag-mod" }

// Fill implements Org.
func (c *TwoTagModified) Fill(lineAddr uint64, segs int, dirty bool) *Result {
	c.res.reset()
	c.stats.Fills++
	segs = clampSegs(segs)
	set := c.set(lineAddr)
	if l := c.freeSlot(set, segs); l >= 0 {
		c.fillAt(set, l, lineAddr, segs, dirty)
		return &c.res
	}
	rec, _ := c.pol.(policy.Recency)
	root := set * c.lways
	best := -1
	for l := 0; l < c.lways; l++ {
		if !c.tags.valid(root + l) {
			continue
		}
		if rec != nil && !rec.NotRecent(set, l) {
			continue
		}
		if !c.fitsBeside(set, l, segs) {
			continue // replacing l would still displace its partner
		}
		if best < 0 || c.tags.segs[root+l] > c.tags.segs[root+best] {
			best = l
		}
	}
	if best < 0 {
		// No fit-preserving candidate: naive partner victimization.
		best = c.pol.Victim(set)
	}
	c.replace(set, best, lineAddr, segs, dirty)
	return &c.res
}

// ContainsBase implements Org; both tags of a two-tag way are demand
// storage, so base residency equals residency.
func (c *twoTagBase) ContainsBase(lineAddr uint64) bool { return c.Contains(lineAddr) }
