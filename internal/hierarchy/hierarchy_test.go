package hierarchy

import (
	"math/rand"
	"runtime"
	"testing"

	"basevictim/internal/ccache"
	"basevictim/internal/dram"
	"basevictim/internal/policy"
)

// smallLLC returns a small Base-Victim-capable LLC config (64 sets x 4
// ways = 16 KB) so tests exercise evictions quickly.
func smallLLC() ccache.Config {
	return ccache.Config{
		SizeBytes: 64 * 4 * 64,
		Ways:      4,
		Policy:    policy.NewNRU,
		Inclusive: true,
	}
}

func smallCfg(prefetch bool) Config {
	cfg := DefaultConfig()
	cfg.L1ISize, cfg.L1IWays = 4<<10, 4
	cfg.L1DSize, cfg.L1DWays = 4<<10, 4
	cfg.L2Size, cfg.L2Ways = 8<<10, 4
	cfg.EnablePrefetch = prefetch
	return cfg
}

func newUncHier(t *testing.T, pf bool) *Hierarchy {
	t.Helper()
	llc, err := ccache.NewUncompressed(smallLLC())
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(smallCfg(pf), llc, dram.New(dram.DefaultConfig()), FixedSizer(8))
}

func newBVHier(t *testing.T, pf bool) *Hierarchy {
	t.Helper()
	llc, err := ccache.NewBaseVictim(smallLLC())
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(smallCfg(pf), llc, dram.New(dram.DefaultConfig()), FixedSizer(8))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil, nil, nil); err == nil {
		t.Fatal("nil components accepted")
	}
	bad := DefaultConfig()
	bad.L1DSize = 100
	llc, _ := ccache.NewUncompressed(smallLLC())
	if _, err := New(bad, llc, dram.New(dram.DefaultConfig()), FixedSizer(8)); err == nil {
		t.Fatal("bad L1 geometry accepted")
	}
}

// TestNilSizerOnlyForUncompressed: only an uncompressed LLC may run
// without a sizer. A compressed organization given no sizes would store
// every line raw and never retain a victim, with nothing to report it.
func TestNilSizerOnlyForUncompressed(t *testing.T) {
	mem := dram.New(dram.DefaultConfig())
	unc, err := ccache.NewUncompressed(smallLLC())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(smallCfg(true), unc, mem, nil)
	if err != nil {
		t.Fatalf("uncompressed LLC with a nil sizer refused: %v", err)
	}
	if h.gen != nil || h.genFilter != nil {
		t.Fatal("a hierarchy without a sizer built write-generation tracking")
	}
	compressed := map[string]func(ccache.Config) (ccache.Org, error){
		"basevictim": func(c ccache.Config) (ccache.Org, error) { return ccache.NewBaseVictim(c) },
		"twotag":     func(c ccache.Config) (ccache.Org, error) { return ccache.NewTwoTag(c) },
		"twotag-mod": func(c ccache.Config) (ccache.Org, error) { return ccache.NewTwoTagModified(c) },
		"vsc2x":      func(c ccache.Config) (ccache.Org, error) { return ccache.NewVSCFunctional(c) },
	}
	for name, mk := range compressed {
		llc, err := mk(smallLLC())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := New(smallCfg(true), llc, mem, nil); err == nil {
			t.Errorf("%s LLC accepted a nil sizer", name)
		}
	}
}

// TestNilSizerMatchesSizedUncompressed: an uncompressed LLC stores every
// line raw whatever the sizer says, so dropping the sizer changes no
// counter of the hierarchy, the LLC or memory.
func TestNilSizerMatchesSizedUncompressed(t *testing.T) {
	for _, pf := range []bool{false, true} {
		build := func(sizer Sizer) *Hierarchy {
			llc, err := ccache.NewUncompressed(smallLLC())
			if err != nil {
				t.Fatal(err)
			}
			return MustNew(smallCfg(pf), llc, dram.New(dram.DefaultConfig()), sizer)
		}
		bare, sized := build(nil), build(FixedSizer(3))
		r := rand.New(rand.NewSource(21))
		for i := 0; i < 30000; i++ {
			now, addr := uint64(i), uint64(r.Intn(1<<16))&^63
			switch r.Intn(8) {
			case 0, 1:
				bare.Store(now, addr)
				sized.Store(now, addr)
			case 2:
				bare.Fetch(now, 1<<20+addr&0xfff)
				sized.Fetch(now, 1<<20+addr&0xfff)
			default:
				bare.Load(now, addr)
				sized.Load(now, addr)
			}
		}
		if bare.Stats != sized.Stats {
			t.Fatalf("prefetch=%v: hierarchy stats diverged:\nnil   %+v\nsized %+v", pf, bare.Stats, sized.Stats)
		}
		if *bare.LLC.Stats() != *sized.LLC.Stats() {
			t.Fatalf("prefetch=%v: LLC stats diverged:\nnil   %+v\nsized %+v", pf, *bare.LLC.Stats(), *sized.LLC.Stats())
		}
		if bare.Mem.Stats != sized.Mem.Stats {
			t.Fatalf("prefetch=%v: DRAM stats diverged:\nnil   %+v\nsized %+v", pf, bare.Mem.Stats, sized.Mem.Stats)
		}
		if bare.Stats.DRAMWrites == 0 || bare.Stats.Compressions == 0 {
			t.Fatalf("prefetch=%v: stream wrote nothing back (stats %+v)", pf, bare.Stats)
		}
	}
}

// TestNewFootprint bounds what one heap-backed New allocates. Every
// bvsimd request builds a hierarchy in a fresh worker process, so each
// byte here is allocated and faulted in on every cold run; a 2^18-entry
// compressed-size memo once made it 2.5 MB.
func TestNewFootprint(t *testing.T) {
	llc, err := ccache.NewBaseVictim(ccache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.New(dram.DefaultConfig())
	const runs, limit = 4, 512 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(DefaultConfig(), llc, mem, FixedSizer(8)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Fatalf("New allocates %d B per call, want at most %d", per, limit)
	}
}

func TestLatencyLadder(t *testing.T) {
	h := newUncHier(t, false)
	// Cold load: all the way to memory.
	coldDone := h.Load(0, 0x1000)
	if coldDone <= DefaultConfig().LLCLatency {
		t.Fatalf("cold load done at %d, expected DRAM-scale latency", coldDone)
	}
	// Now in L1: 3 cycles.
	if done := h.Load(1000, 0x1000); done != 1000+3 {
		t.Fatalf("L1 hit done at %d, want 1003", done)
	}
	// Evict from L1 only: touch enough lines in the same L1 set.
	// L1D: 4KB/4w = 16 sets; lines 0x1000 + i*16*64 share set.
	for i := 1; i <= 4; i++ {
		h.Load(2000, uint64(0x1000+i*16*64))
	}
	if _, hit := h.L1D.Probe(0x1000 >> 6); hit {
		t.Fatal("line still in L1 after conflict fills")
	}
	// L2 hit: 10 cycles.
	if done := h.Load(3000, 0x1000); done != 3000+10 {
		t.Fatalf("L2 hit done at %d, want 3010", done)
	}
}

func TestLLCHitLatencyIncludesCompressionPenalties(t *testing.T) {
	unc := newUncHier(t, false)
	bv := newBVHier(t, false)
	// Load, then push the line out of L1 and L2 (both 4-way); keep LLC.
	warm := func(h *Hierarchy) {
		h.Load(0, 0)
		// Conflict lines congruent to 32 mod 64: they share L1D set 0
		// (16 sets) and L2 set 0 (32 sets) with line 0 but live in LLC
		// set 32, so line 0 stays LLC resident.
		for i := 0; i < 6; i++ {
			h.Load(0, uint64(32+i*64)*64)
		}
		if _, hit := h.L2.Probe(0); hit {
			t.Fatal("warm line still in L2")
		}
		if !h.LLC.ContainsBase(0) {
			t.Fatal("warm line fell out of LLC")
		}
	}
	warm(unc)
	warm(bv)
	uncDone := unc.Load(10000, 0) - 10000
	bvDone := bv.Load(10000, 0) - 10000
	if uncDone != DefaultConfig().LLCLatency {
		t.Fatalf("uncompressed LLC hit latency %d, want %d", uncDone, DefaultConfig().LLCLatency)
	}
	// Base-Victim: +1 tag cycle +2 decompression (FixedSizer(8) lines
	// are compressed).
	want := DefaultConfig().LLCLatency + 1 + 2
	if bvDone != want {
		t.Fatalf("basevictim LLC hit latency %d, want %d", bvDone, want)
	}
}

func TestStoreMakesLineDirtyAndDrainsToMemory(t *testing.T) {
	h := newUncHier(t, false)
	h.Store(0, 0x40)
	if l, ok := h.L1D.LineState(0x40 >> 6); !ok || !l.Dirty {
		t.Fatal("store did not dirty the L1 line")
	}
	// Push the line through L1 and L2 with conflicting loads; the dirty
	// data must eventually reach the LLC.
	for i := 1; i <= 20; i++ {
		h.Load(0, uint64(0x40+i*32*64)) // same L2 set (32 sets), same L1 set (16 sets divides 32)
	}
	// The line should now be dirty in the LLC (or already written to
	// memory if the LLC also evicted it).
	if h.LLC.Contains(0x40 >> 6) {
		ls := h.LLC.Stats()
		if ls.Accesses == 0 {
			t.Fatal("LLC never accessed")
		}
	} else if h.Mem.Stats.Writes == 0 {
		t.Fatal("dirty line left every cache without a memory write")
	}
}

func TestInstructionFetchPath(t *testing.T) {
	h := newUncHier(t, false)
	done := h.Fetch(0, 0x8000)
	if done == 3 {
		t.Fatal("cold fetch cannot be an L1 hit")
	}
	if done := h.Fetch(100, 0x8000); done != 103 {
		t.Fatalf("warm fetch done at %d, want 103", done)
	}
	if h.Stats.Fetches != 2 {
		t.Fatalf("fetches = %d, want 2", h.Stats.Fetches)
	}
}

func TestInclusionHolds(t *testing.T) {
	for _, pf := range []bool{false, true} {
		for _, kind := range []string{"unc", "bv"} {
			var h *Hierarchy
			if kind == "unc" {
				h = newUncHier(t, pf)
			} else {
				h = newBVHier(t, pf)
			}
			r := rand.New(rand.NewSource(9))
			for i := 0; i < 20000; i++ {
				addr := uint64(r.Intn(1<<16)) &^ 63
				if r.Intn(4) == 0 {
					h.Store(uint64(i), addr)
				} else {
					h.Load(uint64(i), addr)
				}
				if r.Intn(8) == 0 {
					h.Fetch(uint64(i), uint64(1<<20+r.Intn(1<<12))&^63)
				}
			}
			if err := h.CheckInclusion(); err != nil {
				t.Fatalf("%s prefetch=%v: %v", kind, pf, err)
			}
		}
	}
}

// TestBaseVictimNeverReadsMoreFromDRAM drives identical traffic through
// the uncompressed and Base-Victim hierarchies: demand DRAM reads must
// never be higher with compression (Figure 8's guarantee).
func TestBaseVictimNeverReadsMoreFromDRAM(t *testing.T) {
	for _, pf := range []bool{false, true} {
		unc := newUncHier(t, pf)
		bv := newBVHier(t, pf)
		r := rand.New(rand.NewSource(33))
		for i := 0; i < 30000; i++ {
			addr := uint64(r.Intn(1<<16)) &^ 63
			write := r.Intn(5) == 0
			if write {
				unc.Store(uint64(i), addr)
				bv.Store(uint64(i), addr)
			} else {
				unc.Load(uint64(i), addr)
				bv.Load(uint64(i), addr)
			}
		}
		if bv.Stats.DemandDRAMReads > unc.Stats.DemandDRAMReads {
			t.Fatalf("prefetch=%v: basevictim demand reads %d > uncompressed %d",
				pf, bv.Stats.DemandDRAMReads, unc.Stats.DemandDRAMReads)
		}
		// Inner caches see identical streams: L2 stats must agree.
		if bv.L2.Stats != unc.L2.Stats {
			t.Fatalf("prefetch=%v: L2 stats diverged:\nunc %+v\nbv  %+v", pf, unc.L2.Stats, bv.L2.Stats)
		}
		if got := bv.LLC.Stats().VictimHits; got == 0 {
			t.Fatal("no victim hits in a reuse-heavy stream; compression inert")
		}
	}
}

func TestCHARHintPlumbing(t *testing.T) {
	llcCfg := smallLLC()
	llcCfg.Policy = policy.NewCHAR
	llc, _ := ccache.NewBaseVictim(llcCfg)
	h := MustNew(smallCfg(false), llc, dram.New(dram.DefaultConfig()), FixedSizer(8))
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		h.Load(uint64(i), uint64(r.Intn(1<<15))&^63)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyCounters(t *testing.T) {
	h := newBVHier(t, false)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Load(uint64(i), uint64(r.Intn(1<<15))&^63)
	}
	c := h.EnergyCounters(123456)
	if c.Cycles != 123456 || c.LLCTagLookups == 0 || c.DRAMReads == 0 {
		t.Fatalf("counters %+v look wrong", c)
	}
	if c.Compressions == 0 {
		t.Fatal("no compressions counted on a fill-heavy run")
	}
}

func TestWritebackGenerationChangesSize(t *testing.T) {
	// A sizer that grows lines on each writeback generation.
	growing := sizerFunc(func(line uint64, gen uint32) int {
		s := 4 + int(gen)*6
		if s > 16 {
			return 16
		}
		return s
	})
	llc, _ := ccache.NewBaseVictim(smallLLC())
	h := MustNew(smallCfg(false), llc, dram.New(dram.DefaultConfig()), growing)
	h.Store(0, 0)
	// Drive the dirty line out of L1 and L2 so it writes back to the
	// LLC and bumps its generation.
	for i := 1; i <= 20; i++ {
		h.Load(uint64(i), uint64(i*32*64))
	}
	if g, _ := h.gen.Get(0); g == 0 {
		t.Fatal("writeback generation never advanced")
	}
}

type sizerFunc func(uint64, uint32) int

func (f sizerFunc) Segments(line uint64, gen uint32) int { return f(line, gen) }

func BenchmarkHierarchyLoad(b *testing.B) {
	llc, _ := ccache.NewBaseVictim(ccache.DefaultConfig())
	h := MustNew(DefaultConfig(), llc, dram.New(dram.DefaultConfig()), FixedSizer(8))
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(8<<20)) &^ 63
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i), addrs[i%len(addrs)])
	}
}
