package sim

import (
	"reflect"
	"testing"

	"basevictim/internal/hierarchy"
	"basevictim/internal/workload"
)

func quickCfg(org OrgKind) Config {
	c := Default()
	c.Org = org
	c.Instructions = 150_000
	return c
}

func sensitiveTrace(t *testing.T) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(workload.Suite(), "mcf.p1")
	if !ok {
		t.Fatal("mcf.p1 missing")
	}
	return p
}

func TestRunSingleBasics(t *testing.T) {
	p := sensitiveTrace(t)
	r, err := RunSingle(p, quickCfg(OrgBaseVictim))
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 150_000 {
		t.Fatalf("retired %d instructions", r.Instructions)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("IPC %.3f out of range", r.IPC)
	}
	if r.LLC.Accesses == 0 || r.DRAMReads == 0 {
		t.Fatal("no LLC/DRAM traffic on a cache-sensitive trace")
	}
}

func TestUnknownOrgAndPolicy(t *testing.T) {
	p := sensitiveTrace(t)
	bad := quickCfg("nope")
	if _, err := RunSingle(p, bad); err == nil {
		t.Fatal("unknown org accepted")
	}
	bad = quickCfg(OrgBaseVictim)
	bad.Policy = "nope"
	if _, err := RunSingle(p, bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
	bad = quickCfg(OrgBaseVictim)
	bad.VictimPolicy = "nope"
	if _, err := RunSingle(p, bad); err == nil {
		t.Fatal("unknown victim policy accepted")
	}
}

// TestValidateAgreesWithRun: Validate refuses exactly what a run would
// refuse at construction, without building anything.
func TestValidateAgreesWithRun(t *testing.T) {
	for _, org := range OrgKinds() {
		c := quickCfg(OrgKind(org))
		c.Compressor, c.Check, c.Inject = "fpc", "full", "size@100"
		if err := c.Validate(); err != nil {
			t.Errorf("%s: valid config refused: %v", org, err)
		}
	}
	p := sensitiveTrace(t)
	bad := map[string]func(*Config){
		"org":        func(c *Config) { c.Org = "nope" },
		"policy":     func(c *Config) { c.Policy = "nope" },
		"victim":     func(c *Config) { c.VictimPolicy = "nope" },
		"compressor": func(c *Config) { c.Compressor = "nope" },
		"check":      func(c *Config) { c.Check = "nope" },
		"inject":     func(c *Config) { c.Inject = "nope@1" },
		"geometry":   func(c *Config) { c.LLCWays = 3 },
		// An uncompressed run builds no value model, yet still refuses
		// a compressor it could not build one with.
		"uncompressed compressor": func(c *Config) { c.Org, c.Compressor = OrgUncompressed, "nope" },
	}
	for name, mutate := range bad {
		c := quickCfg(OrgBaseVictim)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := RunSingle(p, c); err == nil {
			t.Errorf("%s: RunSingle accepted %+v", name, c)
		}
	}
}

// TestBaseVictimBeatsBaselineOnSensitiveTrace is the headline result in
// miniature: on a compression-friendly, cache-sensitive trace the
// Base-Victim LLC must not lose to the uncompressed baseline, and must
// not read more from DRAM.
func TestBaseVictimBeatsBaselineOnSensitiveTrace(t *testing.T) {
	p := sensitiveTrace(t)
	pair, err := RunPair(p, quickCfg(OrgBaseVictim), quickCfg(OrgBaseVictim).Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if pair.DRAMReadRatio() > 1.0 {
		t.Fatalf("DRAM read ratio %.3f > 1", pair.DRAMReadRatio())
	}
	if pair.IPCRatio() < 0.99 {
		t.Fatalf("IPC ratio %.3f; Base-Victim lost on a friendly trace", pair.IPCRatio())
	}
	if pair.Run.LLC.VictimHits == 0 {
		t.Fatal("no victim hits; compression inert")
	}
}

func TestDeterminism(t *testing.T) {
	p := sensitiveTrace(t)
	a, err := RunSingle(p, quickCfg(OrgBaseVictim))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunSingle(p, quickCfg(OrgBaseVictim))
	if a.Cycles != b.Cycles || a.DRAMReads != b.DRAMReads {
		t.Fatalf("same config diverged: %d/%d cycles, %d/%d reads",
			a.Cycles, b.Cycles, a.DRAMReads, b.DRAMReads)
	}
}

func TestBiggerCacheHelps(t *testing.T) {
	p := sensitiveTrace(t)
	base, err := RunSingle(p, quickCfg(OrgUncompressed))
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunSingle(p, quickCfg(OrgUncompressed).WithSize(4<<20, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if big.DemandDRAMReads >= base.DemandDRAMReads {
		t.Fatalf("4MB reads %d not below 2MB reads %d", big.DemandDRAMReads, base.DemandDRAMReads)
	}
}

func TestRunMix(t *testing.T) {
	all := workload.Suite()
	names := workload.Mixes()[0]
	var mix [4]workload.Profile
	for i, n := range names {
		p, ok := workload.ByName(all, n)
		if !ok {
			t.Fatalf("mix trace %s missing", n)
		}
		mix[i] = p
	}
	cfg := quickCfg(OrgBaseVictim)
	cfg.LLCSizeBytes = 4 << 20
	cfg.Instructions = 60_000
	run, err := RunMix(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunMix(mix, cfg.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range run.PerIPC {
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("thread %d IPC %.3f out of range", i, ipc)
		}
	}
	ws := WeightedSpeedup(run, base)
	if ws < 0.9 || ws > 2 {
		t.Fatalf("weighted speedup %.3f implausible", ws)
	}
}

func TestPairRatiosZeroBase(t *testing.T) {
	p := Pair{}
	if p.IPCRatio() != 0 {
		t.Fatal("zero-base IPC ratio should be 0")
	}
	if p.DRAMReadRatio() != 1 {
		t.Fatal("zero-base read ratio should be 1")
	}
}

func BenchmarkRunSingleBaseVictim(b *testing.B) {
	p, _ := workload.ByName(workload.Suite(), "mcf.p1")
	cfg := quickCfg(OrgBaseVictim)
	cfg.Instructions = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSingle(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompressorKnob(t *testing.T) {
	p := sensitiveTrace(t)
	for _, alg := range []string{"bdi", "fpc", "cpack"} {
		cfg := quickCfg(OrgBaseVictim)
		cfg.Compressor = alg
		cfg.Instructions = 60_000
		if _, err := RunSingle(p, cfg); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	cfg := quickCfg(OrgBaseVictim)
	cfg.Compressor = "lzma"
	if _, err := RunSingle(p, cfg); err == nil {
		t.Fatal("unknown compressor accepted")
	}
}

// countingSizer counts the size queries a run makes.
type countingSizer struct {
	inner hierarchy.Sizer
	calls int
}

func (s *countingSizer) Segments(line uint64, gen uint32) int {
	s.calls++
	return s.inner.Segments(line, gen)
}

// TestRunStreamSizesOnlyCompressedRuns: RunStream asks the caller's
// value model nothing on an uncompressed run, which stores every line
// raw, and either way matches RunSingle on the same stream.
func TestRunStreamSizesOnlyCompressedRuns(t *testing.T) {
	p := sensitiveTrace(t)
	for _, org := range []OrgKind{OrgUncompressed, OrgBaseVictim} {
		cfg := quickCfg(org)
		cfg.Instructions = 60_000
		sz := &countingSizer{inner: p.Values()}
		got, err := RunStream(p.Stream(), sz, cfg)
		if err != nil {
			t.Fatalf("%s: %v", org, err)
		}
		if sized := sz.calls > 0; sized != (org != OrgUncompressed) {
			t.Errorf("%s: %d size queries", org, sz.calls)
		}
		want, err := RunSingle(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", org, err)
		}
		got.Trace = want.Trace
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunStream diverged from RunSingle:\nstream %+v\nsingle %+v", org, got, want)
		}
	}
}

func TestLatencyKnobsChangeTiming(t *testing.T) {
	p := sensitiveTrace(t)
	fast := quickCfg(OrgBaseVictim)
	fast.TagCycles, fast.DecompressCycles = 0, 0
	slow := quickCfg(OrgBaseVictim)
	slow.TagCycles, slow.DecompressCycles = 8, 16
	rf, err := RunSingle(p, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunSingle(p, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles <= rf.Cycles {
		t.Fatalf("slow LLC (%d cycles) not slower than fast (%d)", rs.Cycles, rf.Cycles)
	}
	// Functional behaviour must be identical: timing knobs only.
	if rs.DemandDRAMReads != rf.DemandDRAMReads {
		t.Fatal("latency knobs changed functional behaviour")
	}
}
