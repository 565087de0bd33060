package ccache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"basevictim/internal/cache"
	"basevictim/internal/policy"
)

// tinyConfig is a 4-way, 4-set cache (1 KB) so tests can steer
// individual sets easily.
func tinyConfig() Config {
	return Config{
		SizeBytes: 4 * 4 * 64,
		Ways:      4,
		Policy:    policy.NewLRU,
		Victim:    func(sets, ways int) policy.VictimSelector { return policy.NewECMVictim() },
		Inclusive: true,
	}
}

// addrInSet returns the i-th distinct line address mapping to the set.
func addrInSet(sets, set, i int) uint64 { return uint64(i*sets + set) }

// mustIntegrity fails the test on the first structural-invariant
// violation the organization reports.
func mustIntegrity(t *testing.T, o Inspector) {
	t.Helper()
	if err := o.Integrity(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{SizeBytes: 100, Ways: 3, Policy: policy.NewLRU}
	if _, err := NewUncompressed(bad); err == nil {
		t.Error("uncompressed accepted bad config")
	}
	if _, err := NewBaseVictim(bad); err == nil {
		t.Error("basevictim accepted bad config")
	}
	if _, err := NewTwoTag(bad); err == nil {
		t.Error("twotag accepted bad config")
	}
	if _, err := NewVSCFunctional(bad); err == nil {
		t.Error("vsc accepted bad config")
	}
}

// TestConfigErrorNamesGeometry: a non-positive size or way count is
// reported by its two numbers, never as a dump of the whole config with
// its policy constructors printed as function pointers.
func TestConfigErrorNamesGeometry(t *testing.T) {
	for _, c := range []Config{
		{SizeBytes: 0, Ways: 16},
		{SizeBytes: 2 << 20, Ways: 0},
		{SizeBytes: -64, Ways: 16},
	} {
		c.Policy, c.Victim = tinyConfig().Policy, tinyConfig().Victim
		err := c.Validate()
		if err == nil {
			t.Fatalf("size %d / %d ways accepted", c.SizeBytes, c.Ways)
		}
		msg := err.Error()
		if strings.Contains(msg, "0x") {
			t.Errorf("error prints pointers: %s", msg)
		}
		if want := fmt.Sprintf("size %d / %d ways", c.SizeBytes, c.Ways); !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	bv, err := NewBaseVictim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bv.Sets() != 2048 || bv.Ways() != 16 {
		t.Fatalf("2MB/16w geometry: sets=%d ways=%d", bv.Sets(), bv.Ways())
	}
}

func TestUncompressedBasics(t *testing.T) {
	u, _ := NewUncompressed(tinyConfig())
	if r := u.Access(0, false, 16); r.Hit {
		t.Fatal("hit on empty cache")
	}
	u.Fill(0, 16, false)
	if r := u.Access(0, false, 16); !r.Hit || r.Decompress {
		t.Fatal("expected plain hit")
	}
	// Fill set 0 beyond capacity: evictions with back-invals.
	sets := u.Sets()
	for i := 1; i <= 4; i++ {
		u.Fill(addrInSet(sets, 0, i), 16, i == 1)
	}
	st := u.Stats()
	if st.Evictions != 1 || st.BackInvals != 1 {
		t.Fatalf("stats %+v: want 1 eviction + 1 back-inval", st)
	}
}

// demand is the part of Org a driver calls.
type demand interface {
	Access(lineAddr uint64, write bool, segs int) *Result
	Fill(lineAddr uint64, segs int, dirty bool) *Result
}

// driver feeds an Org the way the inclusive hierarchy does: a store to
// a line the L2 does not own becomes a read-for-ownership first, so
// LLC writes (L2 writebacks) only ever target Baseline Cache residents.
// Ownership is dropped on back-invalidation or eviction.
type driver struct {
	o     demand
	owned map[uint64]bool
}

func newDriver(o demand) *driver { return &driver{o: o, owned: make(map[uint64]bool)} }

// reference adapts cache.Cache — the uncompressed model the lockstep
// checker (internal/check) shadows every organization with, and code
// independent of this package — to the driver, so the mirror tests
// hold the shared Baseline Cache path to an outside model.
type reference struct {
	c   *cache.Cache
	res Result
}

func newReference(cfg Config) *reference {
	return &reference{c: cache.MustNew(cache.Geometry{SizeBytes: cfg.SizeBytes, Ways: cfg.Ways}, cfg.Policy)}
}

func (r *reference) Access(lineAddr uint64, write bool, _ int) *Result {
	r.res.reset()
	r.res.Hit = r.c.Access(lineAddr, write)
	return &r.res
}

func (r *reference) Fill(lineAddr uint64, _ int, dirty bool) *Result {
	r.res.reset()
	if ev := r.c.Fill(lineAddr, dirty, false); ev.Valid {
		r.res.Evicted = append(r.res.Evicted, ev.Addr)
		r.res.BackInvals = append(r.res.BackInvals, ev.Addr)
	}
	return &r.res
}

// mustMirror fails the test unless each organization's Baseline Cache
// holds exactly the reference's lines in set, way for way, dirty bits
// included.
func mustMirror(t *testing.T, ref *reference, set int, orgs ...*BaseVictim) {
	t.Helper()
	want := ref.c.DumpSet(set, nil)
	for _, o := range orgs {
		got, _ := o.InspectSet(set, nil, nil)
		for w, r := range want {
			if g := got[w]; g.Valid != r.Valid || g.Valid && (g.Addr != r.Tag || g.Dirty != r.Dirty) {
				t.Fatalf("%s set %d way %d holds %+v, reference %+v", o.Name(), set, w, g, r)
			}
		}
	}
}

func (d *driver) consume(r *Result) {
	for _, a := range r.BackInvals {
		delete(d.owned, a)
	}
	for _, a := range r.Evicted {
		delete(d.owned, a)
	}
}

// do performs one demand operation, returning whether the final access
// hit and whether it hit the Victim Cache.
func (d *driver) do(op streamOp, segs int) (hit, victimHit bool) {
	if op.write && !d.owned[op.addr] {
		// Read-for-ownership before the dirty data can come back.
		r := d.o.Access(op.addr, false, segs)
		rfoHit := r.Hit
		d.consume(r)
		if !rfoHit {
			d.consume(d.o.Fill(op.addr, segs, false))
		}
		d.owned[op.addr] = true
	}
	r := d.o.Access(op.addr, op.write, segs)
	hit, victimHit = r.Hit, r.VictimHit
	d.consume(r)
	if !hit {
		d.consume(d.o.Fill(op.addr, segs, op.write))
	}
	d.owned[op.addr] = true
	return hit, victimHit
}

// runStream drives an Org over a whole stream.
func runStream(o Org, stream []streamOp, sizeOf func(uint64) int) {
	d := newDriver(o)
	for _, op := range stream {
		d.do(op, sizeOf(op.addr))
	}
}

type streamOp struct {
	addr  uint64
	write bool
}

func randStream(seed int64, n, addrs int) []streamOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]streamOp, n)
	for i := range ops {
		// Zipf-ish mixture: small hot set + long tail.
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

// sizeMix deterministically assigns one of the paper-relevant sizes to
// each address: zero lines, half lines, three-quarter lines, and
// incompressible lines.
func sizeMix(addr uint64) int {
	switch addr % 5 {
	case 0:
		return 0 // zero line
	case 1:
		return 5 // ~17B BDI
	case 2:
		return 8 // half
	case 3:
		return 11
	default:
		return 16 // incompressible
	}
}

// TestBaseVictimMirrorsUncompressed is the paper's central guarantee
// (Section IV.A): the Baseline Cache state is identical to an
// uncompressed cache under the same policy, access for access, and the
// compressed cache never has more misses or more writebacks. The
// uncompressed organization shares Base-Victim's Baseline Cache code,
// so comparing the two catches Victim Cache activity disturbing the
// base; the cache.Cache reference also catches a bug in the shared
// path itself.
func TestBaseVictimMirrorsUncompressed(t *testing.T) {
	for _, polName := range policy.Names() {
		polName := polName
		t.Run(polName, func(t *testing.T) {
			pf, err := policy.ByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig()
			cfg.Policy = pf
			f := func(seed int64) bool {
				ref := newReference(cfg)
				unc, _ := NewUncompressed(cfg)
				bv, _ := NewBaseVictim(cfg)
				dr, du, db := newDriver(ref), newDriver(unc), newDriver(bv)
				ops := randStream(seed, 2000, 128)
				for _, op := range ops {
					segs := sizeMix(op.addr)
					hitR, _ := dr.do(op, segs)
					hitU, _ := du.do(op, segs)
					hitB, victimB := db.do(op, segs)
					if hitU != hitR {
						t.Fatalf("seed %d: uncompressed hit=%v but reference hit=%v, addr %d", seed, hitU, hitR, op.addr)
					}
					if hitU && !hitB {
						t.Fatalf("seed %d: uncompressed hit but basevictim missed addr %d", seed, op.addr)
					}
					if hitU != (hitB && !victimB) {
						t.Fatalf("seed %d: base-hit mismatch addr %d", seed, op.addr)
					}
					mustIntegrity(t, bv)
				}
				// Base tags must match exactly, dirty bits included.
				for set := 0; set < unc.Sets(); set++ {
					mustMirror(t, ref, set, unc, bv)
				}
				su, sb := unc.Stats(), bv.Stats()
				if sb.Misses > su.Misses {
					t.Fatalf("seed %d: basevictim misses %d > uncompressed %d", seed, sb.Misses, su.Misses)
				}
				if sb.Writebacks != su.Writebacks {
					t.Fatalf("seed %d: writebacks %d != %d", seed, sb.Writebacks, su.Writebacks)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBaseVictimFillAtMostOneWriteback verifies the one-writeback-per-
// fill property of Section IV.B.1.
func TestBaseVictimFillAtMostOneWriteback(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	d := newDriver(bv)
	ops := randStream(77, 5000, 256)
	for _, op := range ops {
		segs := sizeMix(op.addr)
		if op.write && !d.owned[op.addr] {
			op.write = false // the RFO-expanded sequence is checked below anyway
		}
		r := bv.Access(op.addr, op.write, segs)
		hit := r.Hit
		if len(r.Writebacks) > 1 {
			t.Fatalf("access produced %d writebacks", len(r.Writebacks))
		}
		d.consume(r)
		if !hit {
			r = bv.Fill(op.addr, segs, op.write)
			if len(r.Writebacks) > 1 {
				t.Fatalf("fill produced %d writebacks", len(r.Writebacks))
			}
			d.consume(r)
		}
		d.owned[op.addr] = true
	}
}

// TestBaseVictimFigure4 walks the compressed-LLC-miss example of
// Figure 4 (sizes doubled from the paper's 8-segment ways to our
// 16-segment ways).
func TestBaseVictimFigure4(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	sets := bv.Sets()
	// Build base: way0=A(8) way1=C(8) way2=D(12) way3=B(6).
	a, cAddr, d, b := addrInSet(sets, 0, 1), addrInSet(sets, 0, 2), addrInSet(sets, 0, 3), addrInSet(sets, 0, 4)
	bv.Fill(a, 8, false)
	bv.Fill(cAddr, 8, false)
	bv.Fill(d, 12, false)
	bv.Fill(b, 6, false)
	// Park victims by filling conflicting lines and pulling them back.
	// Easier: install victims directly by evicting bases. Instead we
	// assemble the paper state by hand.
	bv.putVictim(0, 0, tag{addr: addrInSet(sets, 0, 10), valid: true, segs: 6}) // F
	bv.putVictim(0, 1, tag{addr: addrInSet(sets, 0, 11), valid: true, segs: 8}) // E
	bv.putVictim(0, 2, tag{addr: addrInSet(sets, 0, 12), valid: true, segs: 4}) // X
	bv.putVictim(0, 3, tag{addr: addrInSet(sets, 0, 13), valid: true, segs: 6}) // Y
	mustIntegrity(t, bv)
	// Touch bases so LRU order is A,C,D (MRU..) and B is LRU.
	bv.Access(d, false, 12)
	bv.Access(cAddr, false, 8)
	bv.Access(a, false, 8)

	z := addrInSet(sets, 0, 5)
	if r := bv.Access(z, false, 12); r.Hit {
		t.Fatal("Z unexpectedly present")
	}
	r := bv.Fill(z, 12, false)
	mustIntegrity(t, bv)

	// B was clean: back-invalidated, no writeback.
	if len(r.Writebacks) != 0 {
		t.Fatalf("writebacks = %v, want none (B clean)", r.Writebacks)
	}
	if len(r.BackInvals) != 1 || r.BackInvals[0] != b {
		t.Fatalf("backinvals = %v, want [B]", r.BackInvals)
	}
	// Y (6) cannot share with Z (12): silently evicted.
	y := addrInSet(sets, 0, 13)
	found := false
	for _, e := range r.Evicted {
		if e == y {
			found = true
		}
	}
	if !found {
		t.Fatalf("Y not evicted; evicted=%v", r.Evicted)
	}
	// Z sits in base way 3.
	if bt := bv.baseTag(0, 3); !bt.valid || bt.addr != z {
		t.Fatalf("base way3 = %+v, want Z", bt)
	}
	// B (6 segs) fits in ways 0 (A=8) and 1 (C=8), not 2 (D=12) or 3
	// (Z=12). ECM takes the largest base partner; tie -> way 0,
	// silently evicting F.
	if vt := bv.victimTag(0, 0); !vt.valid || vt.addr != b {
		t.Fatalf("victim way0 = %+v, want B", vt)
	}
	if bv.Contains(addrInSet(sets, 0, 10)) {
		t.Fatal("F still resident")
	}
	// X and E untouched.
	if !bv.Contains(addrInSet(sets, 0, 11)) || !bv.Contains(addrInSet(sets, 0, 12)) {
		t.Fatal("E or X lost")
	}
	// Re-requesting B now hits the Victim Cache.
	if r := bv.Access(b, false, 6); !r.Hit || !r.VictimHit {
		t.Fatal("B not a victim hit")
	}
}

// TestBaseVictimFigure5 walks the victim-read-hit promotion example of
// Figure 5: a hit in the Victim Cache promotes the line to the
// Baseline Cache and demotes the baseline victim.
func TestBaseVictimFigure5(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	sets := bv.Sets()
	a, cAddr, d, b := addrInSet(sets, 0, 1), addrInSet(sets, 0, 2), addrInSet(sets, 0, 3), addrInSet(sets, 0, 4)
	e := addrInSet(sets, 0, 11)
	y := addrInSet(sets, 0, 13)
	bv.Fill(a, 8, false)
	bv.Fill(cAddr, 8, false)
	bv.Fill(d, 12, false)
	bv.Fill(b, 6, true) // B dirty this time
	bv.putVictim(0, 1, tag{addr: e, valid: true, segs: 8})
	bv.putVictim(0, 3, tag{addr: y, valid: true, segs: 6})
	bv.Access(d, false, 12)
	bv.Access(cAddr, false, 8)
	bv.Access(a, false, 8)

	r := bv.Access(e, false, 8)
	mustIntegrity(t, bv)
	if !r.Hit || !r.VictimHit {
		t.Fatal("E should hit the Victim Cache")
	}
	// B was dirty: written back and back-invalidated.
	if len(r.Writebacks) != 1 || r.Writebacks[0] != b {
		t.Fatalf("writebacks = %v, want [B]", r.Writebacks)
	}
	if len(r.BackInvals) != 1 || r.BackInvals[0] != b {
		t.Fatalf("backinvals = %v, want [B]", r.BackInvals)
	}
	// E promoted into base way 3; Y (6) fits beside E (8): kept.
	if bt := bv.baseTag(0, 3); !bt.valid || bt.addr != e {
		t.Fatalf("base way3 = %+v, want E", bt)
	}
	if vt := bv.victimTag(0, 3); !vt.valid || vt.addr != y {
		t.Fatalf("victim way3 = %+v, want Y kept", vt)
	}
	// B (6) was parked in the Victim Cache, clean. Free candidates are
	// ways 0 and 1 (equal base sizes); the ECM tie-break takes way 0.
	if vt := bv.victimTag(0, 0); !vt.valid || vt.addr != b || vt.dirty {
		t.Fatalf("victim way0 = %+v, want clean B", vt)
	}
	// A subsequent base hit on E must not be a victim hit.
	if r := bv.Access(e, false, 8); !r.Hit || r.VictimHit {
		t.Fatal("promoted E should hit in base")
	}
}

// TestBaseVictimWriteGrowthEvictsPartner covers Section IV.B.5: a write
// hit that grows the base line silently drops the victim partner.
func TestBaseVictimWriteGrowthEvictsPartner(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	sets := bv.Sets()
	x, v := addrInSet(sets, 0, 1), addrInSet(sets, 0, 2)
	bv.Fill(x, 4, false)
	bv.putVictim(0, 0, tag{addr: v, valid: true, segs: 8})
	mustIntegrity(t, bv)
	// Write X with a size that still fits: partner survives.
	bv.Access(x, true, 8)
	mustIntegrity(t, bv)
	if !bv.Contains(v) {
		t.Fatal("partner evicted although it fits")
	}
	// Grow X to 12: 12+8 > 16, partner dropped silently.
	r := bv.Access(x, true, 12)
	mustIntegrity(t, bv)
	if bv.Contains(v) {
		t.Fatal("partner survived overflow")
	}
	if len(r.Writebacks) != 0 {
		t.Fatal("silent eviction wrote back")
	}
	if bv.Stats().SilentEvictions == 0 {
		t.Fatal("silent eviction not counted")
	}
}

func TestBaseVictimZeroLineSkipsDecompression(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	bv.Fill(0, 0, false)  // zero line
	bv.Fill(1, 16, false) // raw line
	bv.Fill(2, 8, false)  // compressed line
	if r := bv.Access(0, false, 0); r.Decompress {
		t.Fatal("zero line decompressed")
	}
	if r := bv.Access(1, false, 16); r.Decompress {
		t.Fatal("raw line decompressed")
	}
	if r := bv.Access(2, false, 8); !r.Decompress {
		t.Fatal("compressed line skipped decompression")
	}
}

func TestBaseVictimNonInclusiveDirtyVictims(t *testing.T) {
	cfg := tinyConfig()
	cfg.Inclusive = false
	bv, _ := NewBaseVictim(cfg)
	sets := bv.Sets()
	// Fill set 0's base ways with small dirty lines, then overflow.
	for i := 1; i <= 4; i++ {
		bv.Fill(addrInSet(sets, 0, i), 4, true)
	}
	r := bv.Fill(addrInSet(sets, 0, 5), 4, false)
	mustIntegrity(t, bv)
	// Non-inclusive: the displaced dirty line parks in the Victim
	// Cache still dirty, with no writeback and no back-invalidate.
	if len(r.Writebacks) != 0 || len(r.BackInvals) != 0 {
		t.Fatalf("unexpected traffic: wb=%v bi=%v", r.Writebacks, r.BackInvals)
	}
	if bv.VictimOccupancy() != 1 {
		t.Fatalf("victim occupancy = %d, want 1", bv.VictimOccupancy())
	}
	// A write hit on the dirty victim line promotes it with new data.
	victim := addrInSet(sets, 0, 1)
	if r := bv.Access(victim, true, 6); !r.Hit || !r.VictimHit {
		t.Fatal("write to victim line should hit and promote (non-inclusive)")
	}
	mustIntegrity(t, bv)
	if r := bv.Access(victim, false, 6); !r.Hit || r.VictimHit {
		t.Fatal("promoted line should be a base hit")
	}
}

// TestBaseVictimInclusiveVictimWriteRecordsFault: a write hit on an
// inclusive victim line is a hierarchy protocol violation. Instead of
// panicking, the organization records the fault (surfaced through
// sim.Run's error path) and degrades to the non-inclusive promotion so
// the run stays analyzable.
func TestBaseVictimInclusiveVictimWriteRecordsFault(t *testing.T) {
	cfg := tinyConfig()
	bv, _ := NewBaseVictim(cfg)
	sets := bv.Sets()
	addr := addrInSet(sets, 0, 9)
	bv.putVictim(0, 0, tag{addr: addr, valid: true, segs: 4})
	if bv.Fault() != nil {
		t.Fatal("fault recorded before any access")
	}
	r := bv.Access(addr, true, 4)
	if !r.Hit || !r.VictimHit {
		t.Fatal("write to victim line should still hit")
	}
	if bv.Fault() == nil {
		t.Fatal("protocol fault not recorded")
	}
	// The degraded path promotes the line dirty; the structure stays
	// sound and a subsequent access is a normal base hit.
	mustIntegrity(t, bv)
	if r := bv.Access(addr, false, 4); !r.Hit || r.VictimHit {
		t.Fatal("promoted line should be a base hit")
	}
}

// TestTwoTagPartnerVictimization reproduces the Section III example:
// the MRU line shares a way with the LRU line, and a fill that does
// not fit evicts the MRU line too.
func TestTwoTagPartnerVictimization(t *testing.T) {
	cfg := tinyConfig()
	tt, _ := NewTwoTag(cfg)
	sets := tt.Sets()
	// Fill all 8 logical slots of set 0 with size-8 lines.
	for i := 1; i <= 8; i++ {
		tt.Fill(addrInSet(sets, 0, i), 8, false)
	}
	if tt.LogicalLines() != 8 {
		t.Fatalf("logical lines = %d, want 8", tt.LogicalLines())
	}
	// Make line 1 (logical way 0) MRU; line 2 (logical way 1, same
	// physical way) is LRU.
	for i := 8; i >= 3; i-- {
		tt.Access(addrInSet(sets, 0, i), false, 8)
	}
	tt.Access(addrInSet(sets, 0, 1), false, 8)
	// Fill a 12-segment line: LRU victim is logical way 1; its
	// partner (the MRU line!) does not fit 12+8 and is victimized.
	r := tt.Fill(addrInSet(sets, 0, 9), 12, false)
	if len(r.Evicted) != 2 {
		t.Fatalf("evicted %v, want 2 lines (victim + MRU partner)", r.Evicted)
	}
	if tt.Contains(addrInSet(sets, 0, 1)) {
		t.Fatal("MRU partner survived (should be victimized)")
	}
	if tt.Stats().PartnerEvictions != 1 {
		t.Fatalf("partner evictions = %d, want 1", tt.Stats().PartnerEvictions)
	}
}

// TestTwoTagModifiedAvoidsPartnerEviction: with a fitting NRU candidate
// available, the modified policy replaces it instead of victimizing a
// partner.
func TestTwoTagModifiedAvoidsPartnerEviction(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = policy.NewNRU
	tm, _ := NewTwoTagModified(cfg)
	sets := tm.Sets()
	for i := 1; i <= 8; i++ {
		tm.Fill(addrInSet(sets, 0, i), 6, false)
	}
	// Saturate NRU (all used) then touch half the lines so the other
	// half is not-recent.
	tm.pol.Victim(0) // force reset
	for i := 1; i <= 4; i++ {
		tm.Access(addrInSet(sets, 0, i), false, 6)
	}
	// Fill a size-10 line: 10+6=16 fits, so any not-recent tag is a
	// candidate without partner eviction.
	r := tm.Fill(addrInSet(sets, 0, 9), 10, false)
	if len(r.Evicted) != 1 {
		t.Fatalf("evicted %v, want exactly 1", r.Evicted)
	}
	if tm.Stats().PartnerEvictions != 0 {
		t.Fatal("modified policy victimized a partner unnecessarily")
	}
}

// TestTwoTagCapacityBeatsUncompressed checks that with compressible
// lines the two-tag caches hold more logical lines than physical ways.
func TestTwoTagCapacityBeatsUncompressed(t *testing.T) {
	cfg := tinyConfig()
	tt, _ := NewTwoTag(cfg)
	sets := tt.Sets()
	for i := 1; i <= 8; i++ {
		tt.Fill(addrInSet(sets, 0, i), 8, false)
	}
	if got := tt.LogicalLines(); got != 8 {
		t.Fatalf("logical lines = %d, want 8 (2x compression)", got)
	}
}

func TestVSCMultiLineEviction(t *testing.T) {
	cfg := tinyConfig()
	vsc, _ := NewVSCFunctional(cfg)
	sets := vsc.Sets()
	// Fill set 0 with 16 size-4 lines = 64 segments (full).
	for i := 1; i <= 16; i++ {
		vsc.Fill(addrInSet(sets, 0, i), 4, false)
	}
	if vsc.LogicalLines() != 8 {
		// 2x tags on 4 physical ways = 8 tags max.
		t.Fatalf("logical lines = %d, want 8 (tag-limited)", vsc.LogicalLines())
	}
	// Refill with half-size lines until the set is segment-limited:
	// 8 tags x 8 segments = 64 = capacity.
	for i := 30; i < 38; i++ {
		vsc.Fill(addrInSet(sets, 0, i), 8, false)
	}
	// Fill an incompressible line (16 segs): needs a tag (one eviction)
	// plus 16 free segments (a second eviction) — the multi-line
	// replacement Section II criticizes.
	r := vsc.Fill(addrInSet(sets, 0, 40), 16, false)
	if len(r.Evicted) < 2 {
		t.Fatalf("evicted %v, want multi-line eviction", r.Evicted)
	}
	if used := vsc.usedSegments(0); used > vsc.capacity() {
		t.Fatalf("set overflow: %d segments", used)
	}
}

func TestVSCWriteGrowthEvicts(t *testing.T) {
	cfg := tinyConfig()
	vsc, _ := NewVSCFunctional(cfg)
	sets := vsc.Sets()
	for i := 1; i <= 8; i++ {
		vsc.Fill(addrInSet(sets, 0, i), 8, false)
	}
	// 8 lines x 8 segs = 64 = capacity. Grow line 8 to 16 segs.
	r := vsc.Access(addrInSet(sets, 0, 8), true, 16)
	if !r.Hit {
		t.Fatal("write should hit")
	}
	if len(r.Evicted) == 0 {
		t.Fatal("growth should evict lines")
	}
	if vsc.usedSegments(0) > vsc.capacity() {
		t.Fatal("set overflow after growth")
	}
	if !vsc.Contains(addrInSet(sets, 0, 8)) {
		t.Fatal("written line evicted itself")
	}
}

// TestVSCCapacityAdvantage: with 50%-compressible lines VSC approaches
// 2x logical capacity while Base-Victim is tag- and pairing-limited —
// the effective-capacity ordering of Section V.
func TestVSCCapacityAdvantage(t *testing.T) {
	cfg := tinyConfig()
	vsc, _ := NewVSCFunctional(cfg)
	bv, _ := NewBaseVictim(cfg)
	ops := randStream(5, 4000, 96)
	sizeOf := func(a uint64) int { return 8 }
	runStream(vsc, ops, sizeOf)
	runStream(bv, ops, sizeOf)
	if vsc.LogicalLines() < bv.LogicalLines() {
		t.Fatalf("vsc lines %d < basevictim lines %d", vsc.LogicalLines(), bv.LogicalLines())
	}
	phys := vsc.Sets() * vsc.Ways()
	if vsc.LogicalLines() <= phys {
		t.Fatalf("vsc capacity %d not above physical %d", vsc.LogicalLines(), phys)
	}
}

// TestHitRateOrdering: on a compressible working set slightly larger
// than the cache, every compressed organization must beat the
// uncompressed baseline, and Base-Victim must never lose to it.
func TestHitRateOrdering(t *testing.T) {
	mk := func() []Org {
		cfg := tinyConfig()
		cfg.Policy = policy.NewNRU
		unc, _ := NewUncompressed(cfg)
		tt, _ := NewTwoTag(cfg)
		tm, _ := NewTwoTagModified(cfg)
		bv, _ := NewBaseVictim(cfg)
		return []Org{unc, tt, tm, bv}
	}
	orgs := mk()
	ops := randStream(123, 20000, 48) // 48 lines vs 16-line cache
	for _, o := range orgs {
		runStream(o, ops, func(a uint64) int { return 6 })
	}
	unc := orgs[0].Stats()
	for _, o := range orgs[1:] {
		if o.Stats().Hits <= unc.Hits {
			t.Errorf("%s hits %d not above uncompressed %d on compressible set",
				o.Name(), o.Stats().Hits, unc.Hits)
		}
	}
}

func TestEvictionHinterInterfaces(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = policy.NewCHAR
	unc, _ := NewUncompressed(cfg)
	bv, _ := NewBaseVictim(cfg)
	tt, _ := NewTwoTag(cfg)
	for _, o := range []Org{unc, bv, tt} {
		if _, ok := o.(EvictionHinter); !ok {
			t.Errorf("%s does not implement EvictionHinter", o.Name())
		}
	}
	// Hint on a resident line must not panic and must bias the victim.
	unc.Fill(0, 16, false)
	unc.HintEviction(0, true)
	bv.Fill(0, 8, false)
	bv.HintEviction(0, true)
	tt.Fill(0, 8, false)
	tt.HintEviction(0, true)
	// Hint on an absent line is a no-op.
	bv.HintEviction(12345, true)
}

func BenchmarkBaseVictimAccess(b *testing.B) {
	cfg := DefaultConfig()
	bv, _ := NewBaseVictim(cfg)
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if res := bv.Access(a, false, sizeMix(a)); !res.Hit {
			bv.Fill(a, sizeMix(a), false)
		}
	}
}

func BenchmarkUncompressedAccess(b *testing.B) {
	cfg := DefaultConfig()
	unc, _ := NewUncompressed(cfg)
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if res := unc.Access(a, false, 16); !res.Hit {
			unc.Fill(a, 16, false)
		}
	}
}
