package ccache

import "basevictim/internal/obs"

// Observable is implemented by organizations that accept obs
// instrumentation after construction. Attaching post-construction
// (rather than through Config) keeps Config comparable — it is the run
// cache and checkpoint key — and lets the lockstep checker build its
// reference cache from the same Config without double-counting.
type Observable interface {
	// Observe attaches metric and event-trace hooks. Either argument
	// may be nil; all hook calls degrade to nil-receiver no-ops.
	Observe(reg *obs.Registry, ring *obs.Ring)
}

// obsEvent keeps the instrumentation call sites short.
type obsEvent = obs.Event

// llcHooks bundles the obs handles an organization updates on its hot
// paths. The zero value (all-nil handles) is the disabled path: every
// call costs one nil check, matching the cpu.RunCtx polling contract.
type llcHooks struct {
	baseHits   *obs.Counter
	victimHits *obs.Counter
	misses     *obs.Counter

	// fillSegs is the compression size-class histogram: one sample per
	// Fill, bucketed by compressed size in segments (0 = all-zero
	// line, WaySegments = incompressible).
	fillSegs *obs.Histogram

	// Victim-retention outcomes: a displaced baseline victim is either
	// parked in the Victim Cache (retained) or rejected because no way
	// has room (rejectNofit). A parked victim later leaves for one of
	// three reasons: its partner grew on a write (dropPartnerGrow), an
	// incoming fill no longer shares the way (dropPartnerFill), or a
	// newer victim displaced it (dropDisplaced).
	retained          *obs.Counter
	rejectNofit       *obs.Counter
	dropPartnerGrow   *obs.Counter
	dropPartnerFill   *obs.Counter
	dropDisplaced     *obs.Counter
	victimWritebacks  *obs.Counter // dirty victim drops (non-inclusive only)
	victimPromotions  *obs.Counter
	backinvalVictim   *obs.Counter // back-inval to clean a baseline victim
	backinvalEviction *obs.Counter // back-inval because a line left the LLC

	ring *obs.Ring
}

// Victim-drop reasons, shared by the counters above and the ring's
// Event.Reason field.
const (
	dropReasonPartnerGrow = "partner-grow"
	dropReasonPartnerFill = "partner-fill"
	dropReasonDisplaced   = "displaced"
)

func newLLCHooks(reg *obs.Registry, ring *obs.Ring) llcHooks {
	if reg == nil && ring == nil {
		return llcHooks{}
	}
	// Bucket fills by exact segment count: 0..WaySegments-1 plus the
	// implicit overflow bucket for incompressible (== WaySegments).
	bounds := make([]uint64, WaySegments)
	for i := range bounds {
		bounds[i] = uint64(i)
	}
	return llcHooks{
		baseHits:          reg.Counter("ccache.base_hits"),
		victimHits:        reg.Counter("ccache.victim_hits"),
		misses:            reg.Counter("ccache.misses"),
		fillSegs:          reg.Histogram("ccache.fill_segs", bounds),
		retained:          reg.Counter("ccache.victim_retained"),
		rejectNofit:       reg.Counter("ccache.victim_reject_nofit"),
		dropPartnerGrow:   reg.Counter("ccache.victim_drop_partner_grow"),
		dropPartnerFill:   reg.Counter("ccache.victim_drop_partner_fill"),
		dropDisplaced:     reg.Counter("ccache.victim_drop_displaced"),
		victimWritebacks:  reg.Counter("ccache.victim_drop_writeback"),
		victimPromotions:  reg.Counter("ccache.victim_promotions"),
		backinvalVictim:   reg.Counter("ccache.backinval_victim_clean"),
		backinvalEviction: reg.Counter("ccache.backinval_evict"),
		ring:              ring,
	}
}

func (h *llcHooks) dropCounter(reason string) *obs.Counter {
	switch reason {
	case dropReasonPartnerGrow:
		return h.dropPartnerGrow
	case dropReasonPartnerFill:
		return h.dropPartnerFill
	default:
		return h.dropDisplaced
	}
}

// Observe implements Observable. Without a Victim Cache (the
// uncompressed baseline) only the hit/miss/fill and eviction-cause
// metrics are live.
func (c *BaseVictim) Observe(reg *obs.Registry, ring *obs.Ring) {
	c.hooks = newLLCHooks(reg, ring)
}
