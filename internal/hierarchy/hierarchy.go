// Package hierarchy wires the full cache hierarchy of the evaluation
// (Section V): private 32 KB L1 instruction and data caches, a private
// unified 256 KB 8-way L2, and a shared inclusive last-level cache
// implemented by any ccache organization, backed by the DDR3 memory
// model. It enforces inclusion with back-invalidations, routes
// writebacks level to level, delivers L2 eviction reuse hints to
// hint-aware LLC policies (CHAR), and attaches a multi-stream stride
// prefetcher to every level.
//
// The hierarchy is a functional model with a latency oracle: each
// demand access returns its completion time, composed from the
// per-level load-to-use latencies (3/10/24 cycles), the extra
// compressed-cache tag cycle, the 2-cycle decompression penalty where
// it applies, and DRAM bank/bus timing.
package hierarchy

import (
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/cache"
	"basevictim/internal/ccache"
	"basevictim/internal/dram"
	"basevictim/internal/energy"
	"basevictim/internal/flatmap"
	"basevictim/internal/policy"
	"basevictim/internal/prefetch"
)

// Config describes one core's private hierarchy and the shared LLC
// timing parameters.
type Config struct {
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int

	L1Latency  uint64 // load-to-use, cycles
	L2Latency  uint64
	LLCLatency uint64

	// ExtraTagCycles is the added LLC lookup latency from doubling the
	// tags (paper: 1 cycle for all compressed organizations).
	ExtraTagCycles uint64
	// DecompressCycles is the BDI decompression penalty on hits to
	// compressed lines (paper: 2 cycles; zero and raw lines skip it).
	DecompressCycles uint64
	// ExtraLLCLatency models larger uncompressed caches (the paper
	// adds 1 cycle for the 3 MB and larger configurations).
	ExtraLLCLatency uint64

	EnablePrefetch bool
}

// DefaultConfig is the paper's per-core configuration.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 8,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L1Latency: 3, L2Latency: 10, LLCLatency: 24,
		ExtraTagCycles:   1,
		DecompressCycles: 2,
		EnablePrefetch:   true,
	}
}

// Sizer supplies the compressed size of a line's contents. gen counts
// how many times the line has been written back from the L2, letting
// workloads model stores that change compressibility. A hierarchy with
// a sizer asks it on every LLC fill and writeback and keeps no memo of
// its own; a sizer that is costly per call memoizes (workload.Values
// does). A hierarchy without one stores every line raw.
type Sizer interface {
	Segments(lineAddr uint64, gen uint32) int
}

// FixedSizer returns the same size for every line; useful in tests.
type FixedSizer int

// Segments implements Sizer.
func (f FixedSizer) Segments(uint64, uint32) int { return int(f) }

// Stats aggregates hierarchy-level demand counts. Per-cache counters
// live in the respective cache/org stats.
type Stats struct {
	Loads, Stores, Fetches uint64
	DemandDRAMReads        uint64 // LLC demand misses that went to memory
	PrefetchDRAMReads      uint64
	DRAMWrites             uint64
	BackInvalsDirtyAbove   uint64 // back-invalidations that caught dirty inner data

	LLCDataReads  uint64
	LLCDataWrites uint64
	Compressions  uint64
}

// Hierarchy is one core's cache stack bound to a shared LLC and memory
// system. For multi-program simulations several Hierarchies share one
// LLC org and one dram.System.
type Hierarchy struct {
	cfg Config

	L1I, L1D, L2 *cache.Cache
	LLC          ccache.Org
	Mem          *dram.System

	hinter     ccache.EvictionHinter // cached capability of LLC; nil if none
	tagPenalty uint64                // llcTagPenalty, resolved at construction

	pfL1, pfL2, pfLLC *prefetch.Prefetcher

	// sizer sizes lines for the LLC; nil stores every line raw, and
	// then gen and genFilter stay nil too.
	sizer Sizer
	gen   *flatmap.Map[uint32]
	// genFilter is a one-hash Bloom filter over gen's keys: most lines
	// are never written back from the L2, so most LLC fills can prove
	// gen == 0 from one bit instead of a map lookup. Bits are only
	// ever set (no deletion), so a clear bit is authoritative.
	genFilter []uint64

	// AddrOffset shifts this core's addresses so multi-program cores
	// do not alias in the shared LLC (distinct address spaces).
	AddrOffset uint64

	// snoop lists every hierarchy sharing the LLC (including this
	// one): back-invalidations broadcast to all of them, as the
	// inclusive LLC's coherence directory would.
	snoop []*Hierarchy

	Stats Stats
}

// ShareLLC links hierarchies that share one LLC organization so
// back-invalidations reach every core's private caches. Call it once
// with all cores of a multi-program simulation.
func ShareLLC(cores []*Hierarchy) {
	for _, h := range cores {
		h.snoop = cores
	}
}

// New builds a hierarchy around the given LLC organization and memory.
func New(cfg Config, llc ccache.Org, mem *dram.System, sizer Sizer) (*Hierarchy, error) {
	return NewIn(nil, cfg, llc, mem, sizer)
}

// NewIn is New with the private caches' and prefetchers' state carved
// from the arena, so a run's hierarchy can be freed wholesale (nil
// falls back to the heap). A nil sizer stores every line raw and
// tracks no write generations; only an uncompressed LLC accepts one,
// since a compressed organization given no sizes would never pair a
// victim line.
func NewIn(a *arena.Arena, cfg Config, llc ccache.Org, mem *dram.System, sizer Sizer) (*Hierarchy, error) {
	if llc == nil || mem == nil {
		return nil, fmt.Errorf("hierarchy: llc and mem are required")
	}
	raw := ccache.Root(llc).Name() == "uncompressed"
	if sizer == nil && !raw {
		return nil, fmt.Errorf("hierarchy: a %s LLC needs a sizer", ccache.Root(llc).Name())
	}
	mk := func(size, ways int) (*cache.Cache, error) {
		return cache.NewIn(a, cache.Geometry{SizeBytes: size, Ways: ways}, policy.NewLRU)
	}
	l1i, err := mk(cfg.L1ISize, cfg.L1IWays)
	if err != nil {
		return nil, err
	}
	l1d, err := mk(cfg.L1DSize, cfg.L1DWays)
	if err != nil {
		return nil, err
	}
	l2, err := mk(cfg.L2Size, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg: cfg, L1I: l1i, L1D: l1d, L2: l2,
		LLC: llc, Mem: mem, sizer: sizer,
	}
	if sizer != nil {
		h.gen = flatmap.New[uint32](1 << 12)
		h.genFilter = arena.Make[uint64](a, genFilterWords)
	}
	h.hinter, _ = llc.(ccache.EvictionHinter)
	if !raw {
		h.tagPenalty = cfg.ExtraTagCycles
	}
	// Single-core hierarchies snoop only themselves; ShareLLC replaces
	// this for multi-program runs. Pre-binding the group here keeps
	// consume allocation-free on the per-access path.
	h.snoop = []*Hierarchy{h}
	if cfg.EnablePrefetch {
		h.pfL1 = prefetch.NewIn(a, prefetch.DefaultL1())
		h.pfL2 = prefetch.NewIn(a, prefetch.DefaultL2())
		h.pfLLC = prefetch.NewIn(a, prefetch.DefaultLLC())
	}
	return h, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, llc ccache.Org, mem *dram.System, sizer Sizer) *Hierarchy {
	h, err := New(cfg, llc, mem, sizer)
	if err != nil {
		panic(err)
	}
	return h
}

// Prefetchers exposes the per-level prefetch engines (nil when
// prefetching is disabled), in L1, L2, LLC order, so observability can
// export their statistics without the hierarchy owning metric names.
func (h *Hierarchy) Prefetchers() (l1, l2, llc *prefetch.Prefetcher) {
	return h.pfL1, h.pfL2, h.pfLLC
}

// genFilterWords sizes the written-back filter: 2^16 bits (8 KB) keeps
// the false-positive rate negligible for the tens of thousands of
// distinct written-back lines a typical run produces.
const genFilterWords = 1 << 10

// genBit returns the filter word index and mask for a line.
func genBit(line uint64) (int, uint64) {
	hash := (line * 0x9E3779B97F4A7C15) >> 48
	return int(hash >> 6), 1 << (hash & 63)
}

// genOf returns how many times the line has been written back from the
// L2, consulting the map only when the filter says it might be nonzero.
//
//bv:steadystate
func (h *Hierarchy) genOf(line uint64) uint32 {
	w, m := genBit(line)
	if h.genFilter[w]&m == 0 {
		return 0
	}
	g, _ := h.gen.Get(line)
	return g
}

// Load performs a demand data read of addr at time now, returning the
// completion time.
func (h *Hierarchy) Load(now uint64, addr uint64) uint64 {
	h.Stats.Loads++
	return h.dataAccess(now, addr, false)
}

// Store performs a demand data write. A store that misses triggers a
// read-for-ownership fill; the dirty data drains later as writebacks.
func (h *Hierarchy) Store(now uint64, addr uint64) uint64 {
	h.Stats.Stores++
	return h.dataAccess(now, addr, true)
}

// Fetch performs an instruction fetch through the L1I.
func (h *Hierarchy) Fetch(now uint64, addr uint64) uint64 {
	h.Stats.Fetches++
	addr += h.AddrOffset
	line := cache.LineAddr(addr)
	if h.L1I.Access(line, false) {
		return now + h.cfg.L1Latency
	}
	done := h.innerMiss(now, line, false)
	h.fillL1(h.L1I, line, false)
	return done
}

//bv:steadystate
func (h *Hierarchy) dataAccess(now uint64, addr uint64, write bool) uint64 {
	addr += h.AddrOffset
	line := cache.LineAddr(addr)
	if h.L1D.Access(line, write) {
		return now + h.cfg.L1Latency
	}
	if h.pfL1 != nil {
		for _, p := range h.pfL1.Advise(addr) {
			h.prefetchInto(now, p, 1)
		}
	}
	done := h.innerMiss(now, line, write)
	h.fillL1(h.L1D, line, write)
	return done
}

// innerMiss handles an L1 miss: L2, then LLC, then memory. It returns
// the completion time and leaves the line present in the L2.
//
//bv:steadystate
func (h *Hierarchy) innerMiss(now uint64, line uint64, write bool) uint64 {
	// L1 misses become reads at L2: even a store only needs ownership,
	// the dirty data stays in the L1 until eviction.
	if h.L2.Access(line, false) {
		return now + h.cfg.L2Latency
	}
	if h.pfL2 != nil {
		for _, p := range h.pfL2.Advise(line << 6) {
			h.prefetchInto(now, p, 2)
		}
	}
	done := h.llcDemand(now, line)
	h.fillL2(line)
	return done
}

// llcDemand looks the line up in the LLC, fetching from memory on a
// miss. It returns the completion time; the line is resident in the
// LLC afterwards.
func (h *Hierarchy) llcDemand(now uint64, line uint64) uint64 {
	lat := h.cfg.LLCLatency + h.cfg.ExtraLLCLatency + h.llcTagPenalty()
	// Train the LLC prefetcher on baseline misses: a Victim Cache hit
	// is a miss in the mirrored uncompressed cache, so training there
	// keeps prefetch behaviour identical across organizations (and
	// preserves the hit-rate guarantee end to end). Prefetch fills are
	// issued before the demand access so the replacement policy sees
	// the same event order in every organization.
	if h.pfLLC != nil && !h.LLC.ContainsBase(line) {
		for _, p := range h.pfLLC.Advise(line << 6) {
			h.prefetchInto(now, p, 3)
		}
	}
	// All of this miss's prefetch fills precede this access: the line ends Baseline-resident.
	r := h.LLC.Access(line, false, 0)
	hit, decompress := r.Hit, r.Decompress
	h.consume(r)
	if hit {
		h.Stats.LLCDataReads++
		if decompress {
			lat += h.cfg.DecompressCycles
		}
		return now + lat
	}
	h.Stats.DemandDRAMReads++
	done := h.Mem.Access(now+lat, line, false)
	h.llcFill(line, false)
	return done
}

// llcTagPenalty is the doubled-tag cycle for compressed organizations,
// resolved once at construction (Root unwraps verification layers,
// which must not change timing).
func (h *Hierarchy) llcTagPenalty() uint64 { return h.tagPenalty }

// llcFill installs a fetched line into the LLC and processes the
// resulting evictions.
func (h *Hierarchy) llcFill(line uint64, dirty bool) {
	segs := ccache.WaySegments
	if h.sizer != nil {
		segs = h.sizer.Segments(line, h.genOf(line))
	}
	h.Stats.Compressions++
	h.Stats.LLCDataWrites++
	r := h.LLC.Fill(line, segs, dirty)
	h.consume(r)
}

// consume routes an LLC result's events: back-invalidations into the
// inner caches (catching dirty inner copies), writebacks to memory,
// and internal data movement into the counters.
func (h *Hierarchy) consume(r *ccache.Result) {
	group := h.snoop
	for _, bi := range r.BackInvals {
		dirtyAbove := false
		for _, peer := range group {
			if _, d := peer.L1I.Invalidate(bi); d {
				dirtyAbove = true
			}
			if _, d := peer.L1D.Invalidate(bi); d {
				dirtyAbove = true
			}
			if _, d := peer.L2.Invalidate(bi); d {
				dirtyAbove = true
			}
		}
		if dirtyAbove {
			// The freshest data lives above; it goes to memory with
			// the LLC writeback (one write).
			h.Stats.BackInvalsDirtyAbove++
		}
	}
	for _, wb := range r.Writebacks {
		h.Stats.DRAMWrites++
		h.Stats.LLCDataReads++ // read the dirty line out of the array
		h.Mem.Access(0, wb, true)
	}
	h.Stats.LLCDataReads += uint64(r.DataMoves)
	h.Stats.LLCDataWrites += uint64(r.DataMoves)
}

// fillL2 installs a line into the L2, handling the displaced line:
// back-invalidate the L1s (strict inclusion), deliver the reuse hint to
// the LLC policy, and write dirty data back into the LLC.
func (h *Hierarchy) fillL2(line uint64) {
	ev := h.L2.Fill(line, false, false)
	if !ev.Valid {
		return
	}
	dirty := ev.Dirty
	inL1 := false
	if p, d := h.L1I.Invalidate(ev.Addr); p {
		inL1 = true
		dirty = dirty || d
	}
	if p, d := h.L1D.Invalidate(ev.Addr); p {
		inL1 = true
		dirty = dirty || d
	}
	if h.hinter != nil {
		// A line is only plausibly dead if the L2 never saw it again
		// AND the L1s no longer hold it: L1 hits are invisible to the
		// L2, so L1 residency is the best liveness evidence available
		// at this level.
		h.hinter.HintEviction(ev.Addr, !ev.Reused && !inL1)
	}
	if dirty {
		h.writebackToLLC(ev.Addr)
	}
}

// writebackToLLC delivers a dirty L2 eviction to the LLC. The data is
// recompressed, so the line's size can change (Section IV.B.5).
//
//bv:steadystate
func (h *Hierarchy) writebackToLLC(line uint64) {
	segs := ccache.WaySegments
	if h.sizer != nil {
		g := h.genOf(line) + 1
		h.gen.Put(line, g)
		w, m := genBit(line)
		h.genFilter[w] |= m
		segs = h.sizer.Segments(line, g)
	}
	h.Stats.Compressions++
	h.Stats.LLCDataWrites++
	r := h.LLC.Access(line, true, segs)
	h.consume(r)
	if !r.Hit {
		// Inclusion should make this unreachable; tolerate it so a
		// non-inclusive LLC org can still be driven.
		h.llcFill(line, true)
	}
}

// fillL1 installs a line into an L1, draining the displaced dirty line
// into the L2.
func (h *Hierarchy) fillL1(l1 *cache.Cache, line uint64, dirty bool) {
	ev := l1.Fill(line, dirty, false)
	if ev.Valid && ev.Dirty {
		if !h.L2.Writeback(ev.Addr) {
			// Inclusion normally guarantees presence; if the line
			// slipped out, push the dirty data onward to the LLC.
			h.writebackToLLC(ev.Addr)
		}
	}
}

// prefetchInto brings a line toward the given level (1=L1D, 2=L2,
// 3=LLC) without blocking the demand stream. Prefetches perform real
// DRAM accesses (bandwidth and bank contention) and real fills, but
// their latency is not reported anywhere.
func (h *Hierarchy) prefetchInto(now uint64, line uint64, level int) {
	switch level {
	case 1:
		if _, hit := h.L1D.Probe(line); hit {
			return
		}
		h.ensureLLC(now, line)
		if _, hit := h.L2.Probe(line); !hit {
			h.fillL2(line)
		}
		h.fillL1(h.L1D, line, false)
	case 2:
		if _, hit := h.L2.Probe(line); hit {
			return
		}
		h.ensureLLC(now, line)
		h.fillL2(line)
	default:
		h.ensureLLC(now, line)
	}
}

// ensureLLC makes the line LLC-resident, fetching from memory if
// needed. Prefetch lookups touch the LLC like demand lookups (they
// train replacement state identically across organizations).
func (h *Hierarchy) ensureLLC(now uint64, line uint64) {
	r := h.LLC.Access(line, false, 0)
	h.consume(r)
	if r.Hit {
		h.Stats.LLCDataReads++
		return
	}
	h.Stats.PrefetchDRAMReads++
	h.Mem.Access(now, line, false)
	h.llcFill(line, false)
}

// EnergyCounters assembles the energy-model census for this core's
// traffic. cycles is the run's elapsed cycle count.
func (h *Hierarchy) EnergyCounters(cycles uint64) energy.Counters {
	ls := h.LLC.Stats()
	return energy.Counters{
		Cycles:           cycles,
		LLCTagLookups:    ls.Accesses + ls.Fills,
		LLCDataReads:     h.Stats.LLCDataReads,
		LLCDataWrites:    h.Stats.LLCDataWrites,
		LLCPartnerWrites: ls.PartnerWrites,
		Compressions:     h.Stats.Compressions,
		Decompressions:   ls.Decompressions,
		DRAMReads:        h.Mem.Stats.Reads,
		DRAMWrites:       h.Mem.Stats.Writes,
		DRAMActivations:  h.Mem.Stats.Activations,
		DRAMChannels:     2,
	}
}

// CheckInclusion verifies that every line in the inner caches is LLC
// resident; tests call it after traffic.
func (h *Hierarchy) CheckInclusion() error {
	var err error
	check := func(name string, c *cache.Cache) {
		c.ForEachValid(func(lineAddr uint64, dirty bool) {
			if err == nil && !h.LLC.Contains(lineAddr) {
				err = fmt.Errorf("hierarchy: %s line %#x not in LLC", name, lineAddr)
			}
		})
	}
	check("L1I", h.L1I)
	check("L1D", h.L1D)
	check("L2", h.L2)
	return err
}
