package ccache

import "basevictim/internal/policy"

// VSCFunctional is a functional model of the decoupled variable-segment
// cache (VSC-2X, Alameldeen & Wood ISCA 2004): twice as many tags as
// physical ways, with compressed lines packed anywhere in the set's
// segment pool (re-compaction assumed free). Replacement walks the LRU
// stack from the bottom, evicting as many logical lines as needed to
// free space for the incoming line.
//
// The paper uses this model only for the effective-capacity comparison
// in Section V (VSC-class designs reach ~80% extra capacity on
// functional models); its timing overheads are the reason Base-Victim
// exists, so no timing is modeled here.
type VSCFunctional struct {
	cfg   Config
	sets  int
	lways int      // logical ways = 2 * physical
	tags  tagStore // [set*lways + l]
	lru   *policy.LRU
	stats Stats
	res   Result
}

// NewVSCFunctional builds the VSC-2X functional model.
func NewVSCFunctional(cfg Config) (*VSCFunctional, error) {
	sets, err := cfg.sets()
	if err != nil {
		return nil, err
	}
	lways := 2 * cfg.Ways
	return &VSCFunctional{
		cfg:   cfg,
		sets:  sets,
		lways: lways,
		tags:  newTagStore(cfg.Arena, sets*lways),
		lru:   policy.NewLRU(sets, lways).(*policy.LRU),
	}, nil
}

// Name implements Org.
func (c *VSCFunctional) Name() string { return "vsc2x" }

// Sets implements Org.
func (c *VSCFunctional) Sets() int { return c.sets }

// Ways implements Org.
func (c *VSCFunctional) Ways() int { return c.cfg.Ways }

// Stats implements Org.
func (c *VSCFunctional) Stats() *Stats { return &c.stats }

func (c *VSCFunctional) set(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

func (c *VSCFunctional) find(lineAddr uint64) int {
	return c.tags.find(c.set(lineAddr)*c.lways, c.lways, lineAddr)
}

// Contains implements Org.
func (c *VSCFunctional) Contains(lineAddr uint64) bool { return c.find(lineAddr) >= 0 }

// LogicalLines implements Org.
func (c *VSCFunctional) LogicalLines() int { return c.tags.count() }

// usedSegments returns the occupied segment count in a set. Invalid
// slots hold size 0, so no validity test is needed.
func (c *VSCFunctional) usedSegments(set int) int {
	n := 0
	for _, s := range c.tags.segs[set*c.lways : (set+1)*c.lways] {
		n += int(s)
	}
	return n
}

func (c *VSCFunctional) capacity() int { return c.cfg.Ways * WaySegments }

func (c *VSCFunctional) evict(set, l int) {
	i := set*c.lways + l
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
	c.lru.OnInvalidate(set, l)
}

// makeRoom evicts lines from the bottom of the LRU stack until need
// segments are free (and, if needTag, a tag slot is available),
// skipping keep (-1 for none). This is the multi-line eviction
// behaviour Section II calls out as VSC's replacement complexity.
func (c *VSCFunctional) makeRoom(set, need, keep int, needTag bool) {
	root := set * c.lways
	for {
		freeTag := !needTag || c.tags.firstInvalid(root, c.lways) >= 0
		if freeTag && c.usedSegments(set)+need <= c.capacity() {
			return
		}
		order := c.lru.StackOrder(set)
		victim := -1
		for i := len(order) - 1; i >= 0; i-- {
			l := order[i]
			if l != keep && c.tags.valid(root+l) {
				victim = l
				break
			}
		}
		if victim < 0 {
			return // nothing else to evict
		}
		c.evict(set, victim)
	}
}

// Access implements Org. A write hit updates the line's compressed
// size, evicting other lines if the set overflows.
func (c *VSCFunctional) Access(lineAddr uint64, write bool, segs int) *Result {
	c.res.reset()
	c.stats.Accesses++
	set := c.set(lineAddr)
	l := c.find(lineAddr)
	if l < 0 {
		c.stats.Misses++
		return &c.res
	}
	c.stats.Hits++
	c.stats.BaseHits++
	c.res.Hit = true
	i := set*c.lways + l
	oldSegs := int(c.tags.segs[i])
	if needsDecompression(oldSegs) {
		c.res.Decompress = true
		c.stats.Decompressions++
	}
	c.lru.OnHit(set, l)
	if write {
		c.tags.dirty[i] = true
		newSegs := clampSegs(segs)
		if newSegs > oldSegs {
			c.makeRoom(set, newSegs-oldSegs, l, false)
		}
		c.tags.segs[i] = uint8(newSegs)
	}
	return &c.res
}

// Fill implements Org.
func (c *VSCFunctional) Fill(lineAddr uint64, segs int, dirty bool) *Result {
	c.res.reset()
	c.stats.Fills++
	segs = clampSegs(segs)
	set := c.set(lineAddr)
	c.makeRoom(set, segs, -1, true)
	if l := c.tags.firstInvalid(set*c.lways, c.lways); l >= 0 {
		c.tags.put(set*c.lways+l, tag{addr: lineAddr, valid: true, dirty: dirty, segs: segs})
		c.lru.OnFill(set, l)
	}
	return &c.res
}

// ContainsBase implements Org; VSC has no victim partition.
func (c *VSCFunctional) ContainsBase(lineAddr uint64) bool { return c.Contains(lineAddr) }
