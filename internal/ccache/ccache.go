// Package ccache implements the last-level-cache organizations the
// Base-Victim paper evaluates:
//
//   - BaseVictim: the paper's contribution (Section IV), which splits
//     the two tags into a strictly-managed Baseline Cache and an
//     opportunistic, always-clean Victim Cache. NewUncompressed builds
//     it with the Victim Cache switched off, which is the baseline
//     tag-per-way cache; the Baseline Cache is therefore managed
//     exactly like the uncompressed cache by construction.
//   - TwoTag: the naive two-tags-per-way compressed cache of Section
//     III, which victimizes partner lines that no longer fit.
//   - TwoTagModified: the ECM-inspired variant of Figure 7 that
//     searches for a victim whose eviction does not displace a partner.
//   - VSCFunctional: a functional (hit/miss only) model of the
//     decoupled variable-segment cache used for the effective-capacity
//     comparison in Section V.
//
// All organizations are functional models with event reporting: every
// operation returns the writebacks, back-invalidations and internal
// data movements it caused, which the simulator converts into timing
// and energy. They all keep their tags in one structure-of-arrays
// tagStore, and all implement Inspector, the tag-level view the
// lockstep checker and the fault injector (internal/check) use.
package ccache

import (
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/policy"
)

// WaySegments is the number of segments in one physical way: 64-byte
// lines divided into 4-byte segments, per the paper's evaluation
// (Section IV.C aligns compressed lines at 4-byte boundaries).
const WaySegments = 16

// Config describes an LLC organization's geometry and policies.
type Config struct {
	SizeBytes int            // physical data capacity
	Ways      int            // physical ways per set
	Policy    policy.Factory // baseline replacement policy
	// Victim selects the victim-cache way for Base-Victim; nil means
	// the paper's default (ECM-inspired largest-partner).
	Victim func(sets, ways int) policy.VictimSelector
	// Inclusive selects the inclusive-hierarchy variant where Victim
	// Cache lines must stay clean (the paper's main configuration).
	// The zero value is non-inclusive; use DefaultConfig for the
	// paper's setup.
	Inclusive bool
	// Seed perturbs randomized policies.
	Seed uint64
	// Arena, when non-nil, backs the organization's tag arrays so a
	// run's state can be freed wholesale. Nil allocates from the heap.
	// Arena does not affect simulation results and is deliberately
	// excluded from configuration keys.
	Arena *arena.Arena
}

// DefaultConfig returns the paper's main single-thread configuration:
// a 2 MB 16-way inclusive LLC under NRU with the ECM-inspired victim
// selector.
func DefaultConfig() Config {
	return Config{
		SizeBytes: 2 << 20,
		Ways:      16,
		Policy:    policy.NewNRU,
		Victim:    func(sets, ways int) policy.VictimSelector { return policy.NewECMVictim() },
		Inclusive: true,
		Seed:      1,
	}
}

// Validate reports whether the geometry is realizable: a positive size
// and way count giving a power-of-two number of sets.
func (c Config) Validate() error {
	_, err := c.sets()
	return err
}

func (c Config) sets() (int, error) {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return 0, fmt.Errorf("ccache: bad config: size %d / %d ways (both must be positive)", c.SizeBytes, c.Ways)
	}
	sets := c.SizeBytes / (64 * c.Ways)
	if sets == 0 || sets*c.Ways*64 != c.SizeBytes || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("ccache: size %d / %d ways does not give a power-of-two set count", c.SizeBytes, c.Ways)
	}
	return sets, nil
}

// Result reports the side effects of one LLC operation. The slices are
// valid until the next call on the same organization.
type Result struct {
	Hit        bool
	VictimHit  bool // hit was in the Victim Cache (Base-Victim only)
	Decompress bool // returned data needed decompression (0 < segs < WaySegments)

	// Writebacks lists line addresses whose dirty data was written to
	// memory by this operation.
	Writebacks []uint64
	// BackInvals lists line addresses the inclusive hierarchy must
	// invalidate in the inner (L1/L2) caches.
	BackInvals []uint64
	// Evicted lists line addresses that left the LLC entirely.
	Evicted []uint64

	// DataMoves counts internal base<->victim migrations (each is a
	// data-array read plus write), for the energy model.
	DataMoves int
	// PartnerWrite reports that data was written into a physical way
	// whose other logical line stayed live; without word enables this
	// write becomes a read-modify-write (Section VI.D).
	PartnerWrite bool
}

// reset clears the result in place, field by field: assigning a fresh
// composite literal here compiles to a bulk copy that shows up in the
// access-path profile.
func (r *Result) reset() {
	r.Hit = false
	r.VictimHit = false
	r.Decompress = false
	r.Writebacks = r.Writebacks[:0]
	r.BackInvals = r.BackInvals[:0]
	r.Evicted = r.Evicted[:0]
	r.DataMoves = 0
	r.PartnerWrite = false
}

// Stats aggregates LLC events across a run.
type Stats struct {
	Accesses        uint64
	Hits            uint64
	BaseHits        uint64
	VictimHits      uint64
	Misses          uint64
	Fills           uint64
	Writebacks      uint64
	BackInvals      uint64
	Evictions       uint64 // lines leaving the LLC
	SilentEvictions uint64 // clean victim lines dropped with no traffic

	VictimInserts    uint64 // baseline victims parked in the Victim Cache
	VictimInsertFail uint64 // baseline victims that fit nowhere
	PartnerEvictions uint64 // partner lines victimized to make room
	DataMoves        uint64
	PartnerWrites    uint64
	Decompressions   uint64
}

// HitRate returns hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Org is a last-level cache organization. Access performs a demand
// lookup (write=true is a dirty writeback arriving from the L2); on a
// miss the caller fetches the line from memory and calls Fill. The
// segs argument carries the compressed size, in segments, of the
// line's data: for Access it is the size the line would have after a
// write (ignored for reads); for Fill it is the size of the incoming
// data. segs==0 denotes an all-zero line, segs==WaySegments an
// incompressible one.
type Org interface {
	Name() string
	Access(lineAddr uint64, write bool, segs int) *Result
	Fill(lineAddr uint64, segs int, dirty bool) *Result
	Contains(lineAddr uint64) bool
	// ContainsBase reports residency outside any victim storage: a
	// line for which a demand access would hit without promotion.
	// Organizations without a victim partition alias it to Contains.
	ContainsBase(lineAddr uint64) bool
	Stats() *Stats
	// Sets and Ways expose the geometry for tests and capacity studies.
	Sets() int
	Ways() int
	// LogicalLines returns the number of resident logical lines, which
	// exceeds physical ways x sets when compression is working.
	LogicalLines() int
}

// New builds the organization named kind: "uncompressed", "twotag",
// "twotag-mod", "basevictim" or "vsc2x".
func New(kind string, cfg Config) (Org, error) {
	var (
		o   Org
		err error
	)
	switch kind {
	case "uncompressed":
		o, err = NewUncompressed(cfg)
	case "twotag":
		o, err = NewTwoTag(cfg)
	case "twotag-mod":
		o, err = NewTwoTagModified(cfg)
	case "basevictim":
		o, err = NewBaseVictim(cfg)
	case "vsc2x":
		o, err = NewVSCFunctional(cfg)
	default:
		return nil, fmt.Errorf("ccache: unknown organization %q", kind)
	}
	if err != nil {
		// The constructors return a typed nil on error; keep it out of
		// the interface so callers can test the Org against nil.
		return nil, err
	}
	return o, nil
}

// EvictionHinter is implemented by organizations that can forward L2
// eviction reuse hints to a hint-aware replacement policy (CHAR).
type EvictionHinter interface {
	HintEviction(lineAddr uint64, dead bool)
}

// clampSegs normalizes a compressed size into [0, WaySegments].
func clampSegs(segs int) int {
	if segs < 0 {
		return 0
	}
	if segs > WaySegments {
		return WaySegments
	}
	return segs
}

// needsDecompression reports whether a line stored at this size incurs
// the decompression penalty: zero lines and uncompressed lines are
// reconstructed/forwarded straight from the size field (Section V).
func needsDecompression(segs int) bool {
	return segs > 0 && segs < WaySegments
}
