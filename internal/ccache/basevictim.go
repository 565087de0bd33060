package ccache

import (
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/policy"
)

// BaseVictim is the paper's opportunistic compression architecture
// (Section IV). Each physical way holds up to two logical lines: the
// base line, managed strictly by the baseline replacement policy so the
// Baseline Cache always mirrors an uncompressed cache, and a victim
// line — a block the Baseline Cache evicted that is kept around only
// because it compresses well enough to share the way.
//
// In the inclusive configuration (the paper's default) victim lines
// are always clean: a baseline victim is written back (if dirty) and
// back-invalidated from the inner caches before it parks in the Victim
// Cache, so victim evictions are silent and every fill performs at most
// one writeback.
//
// With its Victim Cache switched off (NewUncompressed) the same code is
// the uncompressed baseline: every line is stored raw and a baseline
// victim leaves the LLC instead of parking. The Baseline Cache is
// therefore managed exactly like the uncompressed cache by
// construction, not by a second implementation kept equal to it.
//
// Invariants (checked by tests):
//   - the Baseline Cache state equals an uncompressed cache running the
//     same access stream under the same policy;
//   - hit rate >= the uncompressed cache's, access for access;
//   - base.segs + victim.segs <= WaySegments in every way;
//   - inclusive mode: no victim line is dirty.
type BaseVictim struct {
	cfg    Config
	sets   int
	base   tagStore // [set*ways+way]
	victim tagStore
	pol    policy.Policy
	onMiss policy.MissObserver // cached capability; nil if not implemented
	hinter policy.Hinter       // cached capability; nil if not implemented
	sel    policy.VictimSelector
	stats  Stats
	res    Result
	cands  []policy.Candidate // scratch for victim insertion
	fault  error              // first protocol fault absorbed (see Fault)
	hooks  llcHooks           // obs instrumentation; zero value = disabled
	// victimWays is the Victim Cache's ways per set: Ways for
	// Base-Victim, 0 for the uncompressed baseline. With a Victim Cache
	// its slots are indexed like the base slots, set*Ways+way.
	victimWays int
}

// NewBaseVictim builds the Base-Victim organization.
func NewBaseVictim(cfg Config) (*BaseVictim, error) { return newBaseVictim(cfg, cfg.Ways) }

// NewUncompressed builds the uncompressed baseline: the Base-Victim
// organization with its Victim Cache switched off, one raw line per
// physical way. Its Name is "uncompressed".
func NewUncompressed(cfg Config) (*BaseVictim, error) { return newBaseVictim(cfg, 0) }

func newBaseVictim(cfg Config, victimWays int) (*BaseVictim, error) {
	sets, err := cfg.sets()
	if err != nil {
		return nil, err
	}
	sel := cfg.Victim
	if sel == nil {
		sel = func(sets, ways int) policy.VictimSelector { return policy.NewECMVictim() }
	}
	c := &BaseVictim{
		cfg:    cfg,
		sets:   sets,
		base:   newTagStore(cfg.Arena, sets*cfg.Ways),
		victim: newTagStore(cfg.Arena, sets*victimWays),
		pol:    cfg.Policy(sets, cfg.Ways),
		sel:    sel(sets, cfg.Ways),
		cands:  arena.Make[policy.Candidate](cfg.Arena, cfg.Ways)[:0],
	}
	c.victimWays = victimWays
	c.onMiss, _ = c.pol.(policy.MissObserver)
	c.hinter, _ = c.pol.(policy.Hinter)
	return c, nil
}

// Name implements Org.
func (c *BaseVictim) Name() string {
	if c.victimWays == 0 {
		return "uncompressed"
	}
	return "basevictim"
}

// Sets implements Org.
func (c *BaseVictim) Sets() int { return c.sets }

// Ways implements Org.
func (c *BaseVictim) Ways() int { return c.cfg.Ways }

// Stats implements Org.
func (c *BaseVictim) Stats() *Stats { return &c.stats }

// Policy exposes the baseline replacement policy for hint delivery.
func (c *BaseVictim) Policy() policy.Policy { return c.pol }

func (c *BaseVictim) set(lineAddr uint64) int { return int(lineAddr & uint64(c.sets-1)) }

func (c *BaseVictim) findBase(lineAddr uint64) (way int, ok bool) {
	w := c.base.find(c.set(lineAddr)*c.cfg.Ways, c.cfg.Ways, lineAddr)
	return w, w >= 0
}

func (c *BaseVictim) findVictim(lineAddr uint64) (way int, ok bool) {
	w := c.victim.find(c.set(lineAddr)*c.victimWays, c.victimWays, lineAddr)
	return w, w >= 0
}

// Contains implements Org.
func (c *BaseVictim) Contains(lineAddr uint64) bool {
	if _, ok := c.findBase(lineAddr); ok {
		return true
	}
	_, ok := c.findVictim(lineAddr)
	return ok
}

// LogicalLines implements Org.
func (c *BaseVictim) LogicalLines() int { return c.base.count() + c.victim.count() }

// VictimOccupancy returns the number of resident victim lines.
func (c *BaseVictim) VictimOccupancy() int { return c.victim.count() }

// Access implements Org. Reads that hit the Victim Cache are promoted
// into the Baseline Cache exactly as if they had been fetched from
// memory, so the Baseline Cache keeps mirroring the uncompressed cache.
//
//bv:steadystate
func (c *BaseVictim) Access(lineAddr uint64, write bool, segs int) *Result {
	c.res.reset()
	c.stats.Accesses++
	set := c.set(lineAddr)
	root := set * c.cfg.Ways

	if way := c.base.find(root, c.cfg.Ways, lineAddr); way >= 0 {
		c.stats.Hits++
		c.stats.BaseHits++
		c.hooks.baseHits.Inc()
		c.res.Hit = true
		if needsDecompression(int(c.base.segs[root+way])) {
			c.res.Decompress = true
			c.stats.Decompressions++
		}
		c.pol.OnHit(set, way)
		if write {
			c.baseWrite(set, way, segs)
		}
		return &c.res
	}

	// The access misses the Baseline Cache: the mirrored uncompressed
	// cache misses here, so its policy sees a miss regardless of
	// whether the Victim Cache saves us a memory trip.
	if c.onMiss != nil {
		c.onMiss.OnMiss(set)
	}
	// Without a Victim Cache this scan covers zero ways.
	if vway := c.victim.find(set*c.victimWays, c.victimWays, lineAddr); vway >= 0 {
		c.promote(set, vway, lineAddr, write, segs)
		return &c.res
	}
	c.stats.Misses++
	c.hooks.misses.Inc()
	return &c.res
}

// promote serves a hit in the Victim Cache: the line moves into the
// Baseline Cache exactly as if it had been fetched from memory.
func (c *BaseVictim) promote(set, vway int, lineAddr uint64, write bool, segs int) {
	if write && c.cfg.Inclusive && c.fault == nil {
		// Inclusive victim lines are clean and absent from the inner
		// caches, so the L2 cannot write one back (Section IV.B.3).
		// Record the protocol fault and degrade to the non-inclusive
		// promotion path so the simulation stays analyzable instead of
		// crashing.
		c.fault = fmt.Errorf("ccache: write hit on inclusive Victim Cache line %#x (set %d)", lineAddr, set)
	}
	c.stats.Hits++
	c.stats.VictimHits++
	c.hooks.victimHits.Inc()
	c.res.Hit = true
	c.res.VictimHit = true
	i := set*c.cfg.Ways + vway
	promoted := c.victim.get(i)
	if needsDecompression(promoted.segs) {
		c.res.Decompress = true
		c.stats.Decompressions++
	}
	c.sel.OnHit(set, vway)
	c.victim.invalidate(i)
	c.sel.OnInvalidate(set, vway)
	if write {
		promoted.dirty = true
		promoted.segs = clampSegs(segs)
	}
	// Promotion moves data between physically distinct ways.
	c.res.DataMoves++
	c.stats.DataMoves++
	c.hooks.victimPromotions.Inc()
	c.hooks.ring.Record(obsEvent{
		Kind: "victim-promote", Addr: lineAddr, Set: set, Way: vway,
		Segs: promoted.segs, Dirty: promoted.dirty,
	})
	c.installBase(set, promoted)
}

// baseWrite applies a dirty writeback to a resident base line: the
// line's compressed size changes, and the victim partner is silently
// dropped if the pair no longer fits (Section IV.B.5).
func (c *BaseVictim) baseWrite(set, way, segs int) {
	i := set*c.cfg.Ways + way
	c.base.dirty[i] = true
	if c.victimWays == 0 {
		return // lines stay raw, and no victim partner exists
	}
	newSegs := clampSegs(segs)
	c.base.segs[i] = uint8(newSegs)
	if c.victim.valid(i) && newSegs+int(c.victim.segs[i]) > WaySegments {
		c.silentEvict(set, way, dropReasonPartnerGrow)
	}
	if c.victim.valid(i) {
		c.res.PartnerWrite = true
		c.stats.PartnerWrites++
	}
}

// silentEvict drops the victim line in way for the given reason. In
// inclusive mode this is free: the line is clean and absent above. In
// non-inclusive mode a dirty victim is written back first.
func (c *BaseVictim) silentEvict(set, way int, reason string) {
	i := set*c.cfg.Ways + way
	v := c.victim.get(i)
	if v.dirty {
		c.res.Writebacks = append(c.res.Writebacks, v.addr)
		c.stats.Writebacks++
		c.hooks.victimWritebacks.Inc()
	} else {
		c.stats.SilentEvictions++
	}
	c.stats.Evictions++
	c.res.Evicted = append(c.res.Evicted, v.addr)
	c.hooks.dropCounter(reason).Inc()
	c.hooks.ring.Record(obsEvent{
		Kind: "victim-drop", Addr: v.addr, Set: set, Way: way,
		Segs: v.segs, Reason: reason, Dirty: v.dirty,
	})
	c.victim.invalidate(i)
	c.sel.OnInvalidate(set, way)
}

// Fill implements Org: install a line fetched from memory.
func (c *BaseVictim) Fill(lineAddr uint64, segs int, dirty bool) *Result {
	c.res.reset()
	c.stats.Fills++
	set := c.set(lineAddr)
	if c.victimWays > 0 {
		segs = clampSegs(segs)
		c.hooks.ring.Record(obsEvent{Kind: "fill", Addr: lineAddr, Set: set, Segs: segs, Dirty: dirty})
	} else {
		segs = WaySegments // without a Victim Cache every line is stored raw
	}
	c.hooks.fillSegs.Observe(uint64(segs))
	c.installBase(set, tag{addr: lineAddr, valid: true, dirty: dirty, segs: segs})
	return &c.res
}

// installBase places a line into the Baseline Cache, evicting the
// baseline victim into the Victim Cache when it fits, exactly as
// Sections IV.B.1 and IV.B.2 describe. It appends events to c.res.
func (c *BaseVictim) installBase(set int, incoming tag) {
	root := set * c.cfg.Ways
	// Prefer an invalid base way (cold sets).
	way := c.base.firstInvalid(root, c.cfg.Ways)
	var displaced tag
	if way < 0 {
		way = c.pol.Victim(set)
		displaced = c.base.get(root + way)
	}
	if c.victimWays == 0 {
		// Without a Victim Cache the baseline victim leaves the LLC,
		// and no partner shares the way.
		if displaced.valid {
			c.evictBase(displaced)
		}
		c.base.put(root+way, incoming)
		c.pol.OnFill(set, way)
		return
	}

	if displaced.valid {
		c.hooks.ring.Record(obsEvent{
			Kind: "base-evict", Addr: displaced.addr, Set: set, Way: way,
			Segs: displaced.segs, Dirty: displaced.dirty,
		})
	}

	if displaced.valid && c.cfg.Inclusive {
		// Step 2: make the baseline victim clean. Back-invalidate the
		// inner caches and write dirty data back to memory. In the
		// non-inclusive variant (Section IV.B.3) the victim keeps its
		// dirty state instead.
		c.res.BackInvals = append(c.res.BackInvals, displaced.addr)
		c.stats.BackInvals++
		c.hooks.backinvalVictim.Inc()
		c.hooks.ring.Record(obsEvent{
			Kind: "back-inval", Addr: displaced.addr, Set: set, Way: way,
			Reason: "victim-clean", Dirty: displaced.dirty,
		})
		if displaced.dirty {
			c.res.Writebacks = append(c.res.Writebacks, displaced.addr)
			c.stats.Writebacks++
			displaced.dirty = false
		}
	}

	// Step 3: the way's current victim partner survives only if it
	// still fits beside the incoming line.
	if c.victim.valid(root+way) && incoming.segs+int(c.victim.segs[root+way]) > WaySegments {
		c.stats.PartnerEvictions++
		c.silentEvict(set, way, dropReasonPartnerFill)
	}

	// Step 4: install the incoming line.
	c.base.put(root+way, incoming)
	c.pol.OnFill(set, way)
	if c.victim.valid(root + way) {
		c.res.PartnerWrite = true
		c.stats.PartnerWrites++
	}

	// Steps 5-6: opportunistically park the displaced line in the
	// Victim Cache.
	if displaced.valid {
		c.insertVictim(set, displaced)
	}
}

// evictBase sends a baseline victim out of the LLC, as an uncompressed
// cache does: back-invalidated, and written back if dirty.
func (c *BaseVictim) evictBase(t tag) {
	c.stats.Evictions++
	c.res.Evicted = append(c.res.Evicted, t.addr)
	c.res.BackInvals = append(c.res.BackInvals, t.addr)
	c.stats.BackInvals++
	c.hooks.backinvalEviction.Inc()
	c.hooks.ring.Record(obsEvent{Kind: "base-evict", Addr: t.addr, Reason: "capacity", Dirty: t.dirty})
	if t.dirty {
		c.res.Writebacks = append(c.res.Writebacks, t.addr)
		c.stats.Writebacks++
	}
}

// insertVictim tries to place a (clean) baseline victim into any way
// with enough free segments, using the configured victim selector.
func (c *BaseVictim) insertVictim(set int, line tag) {
	root := set * c.cfg.Ways
	c.cands = c.cands[:0]
	for w := 0; w < c.cfg.Ways; w++ {
		baseSegs := 0
		if c.base.valid(root + w) {
			baseSegs = int(c.base.segs[root+w])
		}
		if baseSegs+line.segs > WaySegments {
			continue
		}
		c.cands = append(c.cands, policy.Candidate{
			Way:         w,
			PartnerSegs: baseSegs,
			Occupied:    c.victim.valid(root + w),
		})
	}
	if len(c.cands) == 0 {
		c.stats.VictimInsertFail++
		c.stats.Evictions++
		c.res.Evicted = append(c.res.Evicted, line.addr)
		c.hooks.rejectNofit.Inc()
		c.hooks.ring.Record(obsEvent{
			Kind: "victim-reject", Addr: line.addr, Set: set,
			Segs: line.segs, Reason: "nofit", Dirty: line.dirty,
		})
		if line.dirty {
			// Only possible in the non-inclusive variant, where the
			// displaced line was not cleaned on the way out.
			c.res.Writebacks = append(c.res.Writebacks, line.addr)
			c.stats.Writebacks++
			c.hooks.victimWritebacks.Inc()
		}
		return
	}
	choice := c.cands[c.sel.Select(set, c.cands)]
	if c.victim.valid(root + choice.Way) {
		c.silentEvict(set, choice.Way, dropReasonDisplaced)
	}
	c.victim.put(root+choice.Way, line)
	c.sel.OnFill(set, choice.Way)
	c.stats.VictimInserts++
	c.hooks.retained.Inc()
	c.hooks.ring.Record(obsEvent{
		Kind: "victim-retain", Addr: line.addr, Set: set, Way: choice.Way,
		Segs: line.segs, Dirty: line.dirty,
	})
	// Moving the victim's data into its new way costs a data-array
	// read and write.
	c.res.DataMoves++
	c.stats.DataMoves++
	if c.base.valid(root + choice.Way) {
		c.res.PartnerWrite = true
		c.stats.PartnerWrites++
	}
}

// HintEviction forwards an L2 reuse hint to the baseline policy if it
// listens (CHAR). Hints only apply to Baseline Cache residents, exactly
// as in the mirrored uncompressed cache.
func (c *BaseVictim) HintEviction(lineAddr uint64, dead bool) {
	if c.hinter == nil {
		return
	}
	if way, found := c.findBase(lineAddr); found {
		c.hinter.OnEvictionHint(c.set(lineAddr), way, dead)
	}
}

// ContainsBase implements Org: Baseline Cache residency only.
func (c *BaseVictim) ContainsBase(lineAddr uint64) bool {
	_, ok := c.findBase(lineAddr)
	return ok
}
