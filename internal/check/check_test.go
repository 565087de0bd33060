package check

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"basevictim/internal/ccache"
	"basevictim/internal/policy"
)

// tinyConfig is a 4-way, 4-set organization so streams conflict hard.
func tinyConfig(polName string) ccache.Config {
	pf, err := policy.ByName(polName)
	if err != nil {
		panic(err)
	}
	return ccache.Config{
		SizeBytes: 4 * 4 * 64,
		Ways:      4,
		Policy:    pf,
		Victim:    func(sets, ways int) policy.VictimSelector { return policy.NewECMVictim() },
		Inclusive: true,
	}
}

func buildOrg(t *testing.T, kind string, cfg ccache.Config) ccache.Org {
	t.Helper()
	o, err := ccache.New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// driver feeds an Org the way the inclusive hierarchy does: a store to
// a line the L2 does not own becomes a read-for-ownership first, so LLC
// writes (L2 writebacks) only target resident lines. Ownership is
// dropped on back-invalidation or eviction.
type driver struct {
	o     ccache.Org
	owned map[uint64]bool
}

func newDriver(o ccache.Org) *driver { return &driver{o: o, owned: make(map[uint64]bool)} }

func (d *driver) consume(r *ccache.Result) {
	for _, a := range r.BackInvals {
		delete(d.owned, a)
	}
	for _, a := range r.Evicted {
		delete(d.owned, a)
	}
}

func (d *driver) do(addr uint64, write bool, segs int) {
	if write && !d.owned[addr] {
		r := d.o.Access(addr, false, segs)
		hit := r.Hit
		d.consume(r)
		if !hit {
			d.consume(d.o.Fill(addr, segs, false))
		}
		d.owned[addr] = true
	}
	r := d.o.Access(addr, write, segs)
	hit := r.Hit
	d.consume(r)
	if !hit {
		d.consume(d.o.Fill(addr, segs, write))
	}
	d.owned[addr] = true
}

type streamOp struct {
	addr  uint64
	write bool
}

func randStream(seed int64, n, addrs int) []streamOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]streamOp, n)
	for i := range ops {
		var a int
		if r.Intn(3) > 0 {
			a = r.Intn(addrs / 4)
		} else {
			a = r.Intn(addrs)
		}
		ops[i] = streamOp{addr: uint64(a), write: r.Intn(5) == 0}
	}
	return ops
}

// sizeMix deterministically assigns one of the paper-relevant
// compressed sizes to each address.
func sizeMix(addr uint64) int {
	switch addr % 5 {
	case 0:
		return 0
	case 1:
		return 5
	case 2:
		return 8
	case 3:
		return 11
	default:
		return 16
	}
}

func runChecked(t *testing.T, ck *Checker, ops []streamOp) {
	t.Helper()
	d := newDriver(ck)
	for _, op := range ops {
		d.do(op.addr, op.write, sizeMix(op.addr))
	}
}

// TestLockstepCleanAllOrgs: every organization, run faithfully, passes
// full lockstep checking over conflict-heavy random streams under
// several baseline policies.
func TestLockstepCleanAllOrgs(t *testing.T) {
	orgs := []string{"uncompressed", "twotag", "twotag-mod", "basevictim", "vsc2x"}
	for _, polName := range []string{"lru", "nru", "srrip", "char", "drrip"} {
		for _, kind := range orgs {
			t.Run(polName+"/"+kind, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := tinyConfig(polName)
					org := buildOrg(t, kind, cfg)
					ck, err := New(org, cfg, Config{Level: Full, SweepEvery: 128})
					if err != nil {
						t.Fatal(err)
					}
					runChecked(t, ck, randStream(seed, 4000, 128))
					if err := ck.Final(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestLockstepNonInclusive covers the Section IV.B.3 variant, where
// victim lines stay dirty and the dirty-bit mirror is relaxed.
func TestLockstepNonInclusive(t *testing.T) {
	cfg := tinyConfig("nru")
	cfg.Inclusive = false
	org := buildOrg(t, "basevictim", cfg)
	ck, err := New(org, cfg, Config{Level: Full, SweepEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, ck, randStream(7, 4000, 128))
	if err := ck.Final(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDetectionTable proves each injected fault class is detected
// within K operations of the injection point. This is the checker's own
// validation: a checker that cannot see deliberate corruption cannot be
// trusted to clear a refactor.
func TestFaultDetectionTable(t *testing.T) {
	const at = 500 // arm each fault once the cache is warm
	cases := []struct {
		name      string
		org       string
		spec      string
		wantKinds []string
		k         uint64 // detection window in operations after arming
	}{
		// Tag corruption breaks the Baseline Cache mirror and the
		// filled-line bookkeeping; a sweep must catch it even if the
		// corrupted set is never touched again. It may also surface first
		// as a cascade: the phantom address diverges the hit stream or the
		// eviction protocol against the shadow.
		{"tag/basevictim", "basevictim", "tag@500",
			[]string{"tag-mismatch", "unknown-line", "hit-divergence", "dropped-backinval"}, 300},
		{"tag/uncompressed", "uncompressed", "tag@500",
			[]string{"tag-mismatch", "unknown-line", "hit-divergence", "dropped-backinval"}, 300},
		// Organizations without the mirror property still detect
		// corruption through the never-filled-line check.
		{"tag/twotag", "twotag", "tag@500", []string{"unknown-line"}, 300},
		{"tag/vsc2x", "vsc2x", "tag@500", []string{"unknown-line"}, 300},
		// A size lie is caught at the lying fill itself.
		{"size/basevictim", "basevictim", "size@500", []string{"size-mismatch"}, 200},
		{"size/twotag-mod", "twotag-mod", "size@500", []string{"size-mismatch"}, 200},
		// Event drops are caught by the eviction cross-check against
		// the shadow, at the dropping operation.
		{"backinval/basevictim", "basevictim", "backinval@500", []string{"dropped-backinval"}, 200},
		{"writeback/basevictim", "basevictim", "writeback@500", []string{"skipped-writeback"}, 200},
		{"writeback/uncompressed", "uncompressed", "writeback@500", []string{"skipped-writeback"}, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig("lru")
			org := buildOrg(t, tc.org, cfg)
			faults, err := ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			inj := NewInjector(org, faults, 42)
			ck, err := New(inj, cfg, Config{Level: Full, SweepEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			runChecked(t, ck, randStream(99, 3000, 128))
			if inj.Pending() {
				t.Fatal("fault never fired; stream too short or fault unreachable")
			}
			vs := ck.Violations()
			if len(vs) == 0 {
				t.Fatalf("injected %s went undetected", tc.spec)
			}
			v := vs[0]
			found := false
			for _, k := range tc.wantKinds {
				if v.Kind == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("first violation kind %q, want one of %v: %v", v.Kind, tc.wantKinds, v)
			}
			if v.OpIndex < at || v.OpIndex > at+tc.k {
				t.Fatalf("detected at op %d, want within (%d, %d]", v.OpIndex, at, at+tc.k)
			}
		})
	}
}

// TestFaultSurfacesThroughErr: Err and Final return the first violation
// as a *Violation error value.
func TestFaultSurfacesThroughErr(t *testing.T) {
	cfg := tinyConfig("lru")
	org := buildOrg(t, "basevictim", cfg)
	faults, _ := ParseSpec("size@100")
	inj := NewInjector(org, faults, 1)
	ck, err := New(inj, cfg, Config{Level: Cheap})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, ck, randStream(3, 1500, 128))
	var v *Violation
	if !errors.As(ck.Final(), &v) {
		t.Fatalf("Final() = %v, want *Violation", ck.Final())
	}
	if v != ck.Violations()[0] {
		t.Fatal("Err/Final does not return the first violation")
	}
}

// TestViolationForensics: the violation error carries the access index,
// address, set dumps and the recent-operation ring.
func TestViolationForensics(t *testing.T) {
	cfg := tinyConfig("lru")
	org := buildOrg(t, "basevictim", cfg)
	faults, _ := ParseSpec("size@200")
	inj := NewInjector(org, faults, 1)
	ck, err := New(inj, cfg, Config{Level: Cheap, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, ck, randStream(11, 1000, 128))
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatal("no violation recorded")
	}
	v := vs[0]
	if v.OpIndex == 0 || v.Org != "basevictim" {
		t.Fatalf("missing context: %+v", v)
	}
	if len(v.Recent) == 0 || len(v.Recent) > 8 {
		t.Fatalf("ring snapshot has %d records, want 1..8", len(v.Recent))
	}
	if len(v.Base) == 0 {
		t.Fatal("set dump missing")
	}
	msg := v.Error()
	for _, want := range []string{"size-mismatch", "basevictim", "base", "#"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message missing %q:\n%s", want, msg)
		}
	}
}

// TestFullDowngradesToCheap: past the budget, full checking downgrades
// with a notice instead of slowing the run forever.
func TestFullDowngradesToCheap(t *testing.T) {
	cfg := tinyConfig("lru")
	org := buildOrg(t, "basevictim", cfg)
	ck, err := New(org, cfg, Config{Level: Full, FullBudget: 500, SweepEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	runChecked(t, ck, randStream(5, 2000, 128))
	if got := ck.Notices(); len(got) != 1 || !strings.Contains(got[0], "downgraded") {
		t.Fatalf("notices = %v, want one downgrade notice", got)
	}
	if err := ck.Final(); err != nil {
		t.Fatal(err)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"": Off, "off": Off, "cheap": Cheap, "full": Full} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("paranoid"); err == nil {
		t.Error("ParseLevel accepted bad level")
	}
}

func TestParseSpec(t *testing.T) {
	fs, err := ParseSpec("tag@1000, writeback@5000,size")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{{FaultTag, 1000}, {FaultWriteback, 5000}, {FaultSize, 1}}
	if len(fs) != len(want) {
		t.Fatalf("parsed %v", fs)
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("fault %d = %v, want %v", i, fs[i], want[i])
		}
	}
	for _, bad := range []string{"", "bitrot@3", "tag@zero", "tag@0"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestCheckerIsTransparent: wrapping must not change functional
// behavior — stats and final tag state match an unchecked twin run.
func TestCheckerIsTransparent(t *testing.T) {
	cfg := tinyConfig("nru")
	plain := buildOrg(t, "basevictim", cfg)
	checked := buildOrg(t, "basevictim", cfg)
	ck, err := New(checked, cfg, Config{Level: Full, SweepEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	ops := randStream(21, 3000, 128)
	dp, dc := newDriver(plain), newDriver(ck)
	for _, op := range ops {
		dp.do(op.addr, op.write, sizeMix(op.addr))
		dc.do(op.addr, op.write, sizeMix(op.addr))
	}
	if err := ck.Final(); err != nil {
		t.Fatal(err)
	}
	if *plain.Stats() != *checked.Stats() {
		t.Fatalf("stats diverged:\nplain   %+v\nchecked %+v", *plain.Stats(), *checked.Stats())
	}
	if ccache.Root(ck) != checked {
		t.Fatal("Root did not unwrap the checker")
	}
}
