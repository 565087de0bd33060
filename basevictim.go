// Package basevictim is a from-scratch reproduction of "Base-Victim
// Compression: An Opportunistic Cache Compression Architecture" (Gaur,
// Alameldeen, Subramoney — ISCA 2016).
//
// The package is a facade over the full simulation stack:
//
//   - hardware cache-line compressors (BDI, FPC, C-PACK);
//   - compressed last-level-cache organizations (the naive and
//     modified two-tag caches, the paper's Base-Victim architecture,
//     and a functional VSC-2X model);
//   - a cache hierarchy with inclusive LLC, back-invalidation,
//     multi-stream prefetchers, an out-of-order core timing model and
//     a DDR3-1600 memory system;
//   - the 100-trace synthetic workload suite and 20 multi-program
//     mixes standing in for the paper's trace list (Table I);
//   - every table and figure of the evaluation as a regenerable
//     experiment.
//
// Quick start:
//
//	p, _ := basevictim.TraceByName("mcf.p1")
//	pair, _ := basevictim.Compare(p, basevictim.BaseVictimConfig(), 1_000_000)
//	fmt.Printf("IPC ratio %.3f\n", pair.IPCRatio())
package basevictim

import (
	"context"
	"fmt"

	"basevictim/internal/ccache"
	"basevictim/internal/compress"
	"basevictim/internal/figures"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// Compressor is a hardware cache-line compressor (64-byte lines).
type Compressor = compress.Compressor

// LineSize is the cache line size in bytes.
const LineSize = compress.LineSize

// NewBDI returns the Base-Delta-Immediate compressor the paper uses.
func NewBDI() Compressor { return compress.NewBDI() }

// NewFPC returns a Frequent Pattern Compression compressor.
func NewFPC() Compressor { return compress.NewFPC() }

// NewCPack returns a C-PACK compressor.
func NewCPack() Compressor { return compress.NewCPack() }

// CompressorByName resolves "bdi", "fpc", "cpack" or "none".
func CompressorByName(name string) (Compressor, error) { return compress.ByName(name) }

// SegmentsFor converts a compressed size in bytes into 4-byte data
// segments, as the cache organizations consume it.
func SegmentsFor(sizeBytes int) int { return compress.SegmentsFor(sizeBytes, 4) }

// Config describes one simulation configuration (LLC organization,
// geometry, policies, instruction budget).
type Config = sim.Config

// Pair couples a run with its baseline for ratio metrics.
type Pair = sim.Pair

// Result is a single-trace simulation outcome.
type Result = sim.Result

// Trace is one synthetic workload phase.
type Trace = workload.Profile

// OrgKind names a cache organization in Config.Org.
type OrgKind = sim.OrgKind

// Organization kind names accepted by Config.Org.
const (
	OrgUncompressed = sim.OrgUncompressed
	OrgTwoTag       = sim.OrgTwoTag
	OrgTwoTagMod    = sim.OrgTwoTagMod
	OrgBaseVictim   = sim.OrgBaseVictim
	OrgVSC          = sim.OrgVSC
)

// BaseVictimConfig returns the paper's main configuration: a 2 MB
// 16-way inclusive Base-Victim LLC under NRU with the ECM-inspired
// victim selector and aggressive prefetching.
func BaseVictimConfig() Config { return sim.Default() }

// BaselineConfig returns the matching 2 MB uncompressed baseline.
func BaselineConfig() Config { return sim.Default().Baseline() }

// Traces returns the full 100-trace suite (Table I).
func Traces() []Trace { return workload.Suite() }

// SensitiveTraces returns the 60 cache-sensitive traces.
func SensitiveTraces() []Trace { return workload.Sensitive(workload.Suite()) }

// TraceByName finds a trace (e.g. "mcf.p1").
func TraceByName(name string) (Trace, error) {
	p, ok := workload.ByName(workload.Suite(), name)
	if !ok {
		return Trace{}, fmt.Errorf("basevictim: unknown trace %q", name)
	}
	return p, nil
}

// Mixes returns the 20 four-way multi-program mixes.
func Mixes() [][4]string { return workload.Mixes() }

// Run simulates one trace under one configuration.
func Run(t Trace, cfg Config, instructions uint64) (Result, error) {
	return RunContext(context.Background(), t, cfg, instructions)
}

// RunContext is Run with cancellation and deadline support: the
// simulation polls ctx inside the instruction loop and aborts promptly
// when it is cancelled or its deadline passes.
func RunContext(ctx context.Context, t Trace, cfg Config, instructions uint64) (Result, error) {
	if instructions > 0 {
		cfg.Instructions = instructions
	}
	return sim.RunSingleCtx(ctx, t, cfg)
}

// Compare runs a trace under cfg and under the uncompressed baseline
// of the same geometry and policy.
func Compare(t Trace, cfg Config, instructions uint64) (Pair, error) {
	if instructions > 0 {
		cfg.Instructions = instructions
	}
	return sim.RunPair(t, cfg, cfg.Baseline())
}

// MixResult is a 4-thread multi-program outcome.
type MixResult = sim.MultiResult

// RunMix executes a four-trace multi-program mix on a shared LLC.
func RunMix(names [4]string, cfg Config, instructionsPerThread uint64) (MixResult, error) {
	return RunMixContext(context.Background(), names, cfg, instructionsPerThread)
}

// RunMixContext is RunMix with cancellation and deadline support.
func RunMixContext(ctx context.Context, names [4]string, cfg Config, instructionsPerThread uint64) (MixResult, error) {
	var mix [4]workload.Profile
	for i, n := range names {
		p, err := TraceByName(n)
		if err != nil {
			return MixResult{}, err
		}
		mix[i] = p
	}
	if instructionsPerThread > 0 {
		cfg.Instructions = instructionsPerThread
	}
	return sim.RunMixCtx(ctx, mix, cfg)
}

// WeightedSpeedup computes the paper's multi-program metric between a
// run and its baseline.
func WeightedSpeedup(run, base MixResult) float64 { return sim.WeightedSpeedup(run, base) }

// Session is an experiment session that memoizes baselines across
// figures.
type Session = figures.Session

// ExperimentTable is a regenerated paper table or figure.
type ExperimentTable = figures.Table

// NewSession creates an experiment session with the given per-trace
// instruction budget (the paper uses 200M; hundreds of thousands to a
// few million reproduce the shape on a laptop).
func NewSession(instructions uint64) *Session { return figures.NewSession(instructions) }

// Experiments lists every reproducible experiment (table1, fig6..fig14,
// assoc, victimpolicy, area, capacity, traffic).
func Experiments() []string {
	var out []string
	for _, e := range figures.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment regenerates one experiment by id.
func RunExperiment(s *Session, id string) (ExperimentTable, error) {
	return RunExperimentContext(context.Background(), s, id)
}

// RunExperimentContext regenerates one experiment by id under a
// context: cancelling ctx (or exceeding its deadline) stops the
// experiment's in-flight simulations promptly and returns the ctx
// error wrapped in the first failed run's error.
func RunExperimentContext(ctx context.Context, s *Session, id string) (ExperimentTable, error) {
	for _, e := range figures.Experiments() {
		if e.ID == id {
			return e.Run(s, ctx)
		}
	}
	return ExperimentTable{}, fmt.Errorf("basevictim: unknown experiment %q (known: %v)", id, Experiments())
}

// RunPanicError reports a panic contained inside a single simulation:
// the trace (or mix), the full configuration and the goroutine stack.
// A panicking run fails like any other erroring run instead of
// crashing the process, and inside an experiment batch it fails only
// its own job — sibling runs complete.
type RunPanicError = sim.RunPanicError

// CheckpointStore is a durable on-disk store of completed simulation
// results, keyed by the full (trace, config) identity. Attach one to a
// Session (Session.Store) to make a suite crash-recoverable: a later
// session opened with resume=true re-simulates only runs that never
// completed.
type CheckpointStore = figures.Store

// NewCheckpointStore opens (creating if needed) a checkpoint
// directory. With resume set, valid existing records satisfy run
// requests; without it the store only writes.
func NewCheckpointStore(dir string, resume bool) (*CheckpointStore, error) {
	return figures.NewStore(dir, resume)
}

// VerifyCheckpointDir decodes and checks every checkpoint record in
// dir, returning the record count; any truncated or corrupt record is
// an error naming the file. `figures -cache-dir DIR -verify` exposes
// it on the command line, so CI can prove an interrupted suite (or a
// drained bvsimd) left only complete records behind.
func VerifyCheckpointDir(dir string) (int, error) {
	return figures.VerifyDir(dir)
}

// CacheConfig configures a standalone LLC organization for direct use
// (no timing, no hierarchy) — useful for cache-behaviour studies.
type CacheConfig = ccache.Config

// CacheOrg is a functional last-level-cache organization.
type CacheOrg = ccache.Org

// DefaultCacheConfig is the paper's 2 MB 16-way inclusive setup.
func DefaultCacheConfig() CacheConfig { return ccache.DefaultConfig() }

// NewCache builds a standalone cache organization: "uncompressed",
// "twotag", "twotag-mod", "basevictim" or "vsc2x".
func NewCache(kind string, cfg CacheConfig) (CacheOrg, error) {
	return ccache.New(kind, cfg)
}
