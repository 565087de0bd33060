package ccache

import "basevictim/internal/arena"

// tag is one logical line's tag entry in exchange form: what tagStore
// get returns and put stores, and what Base-Victim carries between its
// partitions.
type tag struct {
	addr  uint64
	valid bool
	dirty bool
	segs  int // compressed size in segments (WaySegments when raw)
}

// invalidAddr marks an empty tag slot in a tagStore. Line addresses
// are byte addresses shifted right by 6, so the all-ones value is
// unreachable. segs cannot double as the validity bit because a valid
// all-zero line legitimately has segs == 0.
const invalidAddr = ^uint64(0)

// tagStore is a structure-of-arrays tag partition, the one tag store
// every organization here is built from. Slot set*n+w holds logical
// way w of a partition with n ways per set. The per-access find scan —
// the hottest code in every organization — walks only the dense
// address array; dirty bits and sizes live in sidecar arrays touched
// only for the way that matters.
type tagStore struct {
	addrs []uint64 // invalidAddr = empty slot
	dirty []bool
	segs  []uint8 // 0..WaySegments
}

func newTagStore(a *arena.Arena, n int) tagStore {
	s := tagStore{
		addrs: arena.Make[uint64](a, n),
		dirty: arena.Make[bool](a, n),
		segs:  arena.Make[uint8](a, n),
	}
	for i := range s.addrs {
		s.addrs[i] = invalidAddr
	}
	return s
}

// find scans ways slots starting at base for lineAddr and returns the
// way offset, or -1.
//
//bv:steadystate
func (s *tagStore) find(base, ways int, lineAddr uint64) int {
	for w, a := range s.addrs[base : base+ways] {
		if a == lineAddr {
			return w
		}
	}
	return -1
}

// firstInvalid returns the lowest empty way offset in [base,
// base+ways), or -1 when the slots are all full.
func (s *tagStore) firstInvalid(base, ways int) int {
	return s.find(base, ways, invalidAddr)
}

func (s *tagStore) valid(i int) bool { return s.addrs[i] != invalidAddr }

// get materializes the exchange struct for slot i. Invalid slots
// come back as the zero tag (the stale address is not preserved
// across invalidation, which no consumer observes).
func (s *tagStore) get(i int) tag {
	if s.addrs[i] == invalidAddr {
		return tag{}
	}
	return tag{addr: s.addrs[i], valid: true, dirty: s.dirty[i], segs: int(s.segs[i])}
}

// put stores the exchange struct into slot i.
func (s *tagStore) put(i int, t tag) {
	if !t.valid {
		s.invalidate(i)
		return
	}
	s.addrs[i] = t.addr
	s.dirty[i] = t.dirty
	s.segs[i] = uint8(t.segs)
}

func (s *tagStore) invalidate(i int) {
	s.addrs[i] = invalidAddr
	s.dirty[i] = false
	s.segs[i] = 0
}

// info is slot i in the exported form Inspector hands out.
func (s *tagStore) info(i int) LineInfo {
	t := s.get(i)
	return LineInfo{Addr: t.addr, Valid: t.valid, Dirty: t.dirty, Segs: t.segs}
}

// count returns the number of valid slots.
func (s *tagStore) count() int {
	n := 0
	for _, a := range s.addrs {
		if a != invalidAddr {
			n++
		}
	}
	return n
}

// corrupt XORs bits into the address of way of set, in a partition
// of ways slots per set (fault injection). Out-of-range and invalid
// slots return false and leave the state untouched.
func (s *tagStore) corrupt(set, ways, way int, xor uint64) bool {
	i := set*ways + way
	if way < 0 || way >= ways || s.addrs[i] == invalidAddr {
		return false
	}
	s.addrs[i] ^= xor
	return true
}
