package ccache

import (
	"testing"

	"basevictim/internal/policy"
)

// FuzzBaseVictimInvariants interprets arbitrary bytes as a program of
// cache operations and checks the structural invariants after every
// step: way-capacity, victim cleanliness, no duplicate residency, and
// the mirror property against both the uncompressed organization and
// the independent cache.Cache reference. Every program runs under
// every baseline policy: LRU, NRU and SRRIP fill a cold set in way
// order, which hides a wrong choice between an invalid way and the
// policy's victim.
func FuzzBaseVictimInvariants(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x13, 0x44, 0x01, 0x01})
	f.Add([]byte{0xFF, 0x00, 0x7F, 0x80, 0x22, 0x22, 0x22})
	// Two reads filling one cold set: the second fill must take the
	// first invalid way, not the policy's victim.
	f.Add([]byte("20B0"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, name := range policy.Names() {
			cfg := tinyConfig()
			cfg.Policy, _ = policy.ByName(name)
			ref := newReference(cfg)
			bv, _ := NewBaseVictim(cfg)
			unc, _ := NewUncompressed(cfg)
			dr, db, du := newDriver(ref), newDriver(bv), newDriver(unc)
			for i := 0; i+1 < len(prog); i += 2 {
				op := streamOp{
					addr:  uint64(prog[i] & 0x3F),
					write: prog[i+1]&0x80 != 0,
				}
				segs := sizeMix(uint64(prog[i+1] & 0x1F))
				hitR, _ := dr.do(op, segs)
				hitU, _ := du.do(op, segs)
				hitB, victimB := db.do(op, segs)
				if hitU != hitR {
					t.Fatalf("%s: uncompressed and reference disagree on a hit", name)
				}
				if hitU && !hitB {
					t.Fatalf("%s: uncompressed hit but basevictim missed", name)
				}
				if hitU != (hitB && !victimB) {
					t.Fatalf("%s: base-hit mismatch", name)
				}
				mustIntegrity(t, bv)
				mustMirror(t, ref, int(op.addr)%bv.Sets(), unc, bv)
			}
			if bv.Stats().Misses > unc.Stats().Misses {
				t.Fatalf("%s: basevictim missed more than uncompressed", name)
			}
		}
	})
}

// FuzzTwoTagInvariants checks that the organizations without a
// Baseline Cache (naive and modified two-tag, VSC) keep their
// structural invariants: no way or set overflow and no line resident
// twice.
func FuzzTwoTagInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, prog []byte) {
		cfg := tinyConfig()
		cfg.Policy = policy.NewNRU
		for _, mk := range []func() Org{
			func() Org { o, _ := NewTwoTag(cfg); return o },
			func() Org { o, _ := NewTwoTagModified(cfg); return o },
			func() Org { o, _ := NewVSCFunctional(cfg); return o },
		} {
			o := mk()
			d := newDriver(o)
			for i := 0; i+1 < len(prog); i += 2 {
				op := streamOp{addr: uint64(prog[i] & 0x3F), write: prog[i+1]&0x80 != 0}
				d.do(op, sizeMix(uint64(prog[i+1]&0x1F)))
				mustIntegrity(t, o.(Inspector))
			}
		}
	})
}
