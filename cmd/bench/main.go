// Command bench measures the simulator and the experiment engine and
// writes a machine-readable BENCH_<date>_<sha>.json snapshot next to
// the repo's other artifacts, so perf regressions show up as diffs.
// The report pins the host (go version, OS/arch, CPU count,
// GOMAXPROCS) and the commit it measured, and each throughput stat
// embeds the run's observability snapshot so a slowdown can be
// correlated with a behavior change from the artifact alone.
//
// It records three things:
//
//   - raw simulator throughput (MIPS) on a representative trace;
//   - per-experiment wall-clock and allocation cost on a capped
//     session (fresh session per experiment, serial, so numbers are
//     comparable across runs);
//   - serial vs parallel wall-clock for the capped full suite, with a
//     byte-identity check between the two runs' tables.
//
// Usage:
//
//	bench                        # writes BENCH_YYYY-MM-DD.json
//	bench -ins 100000 -traces 4 -out BENCH.json
//	bench -compare old.json new.json -max-regress 10
//
// Compare mode prints a benchstat-style delta table between two
// snapshots and exits with cliexit.Gate (6) if any throughput entry
// of the old snapshot regressed by more than -max-regress percent or
// is missing from the new one, which is what the CI perf-smoke job
// runs against the checked-in baseline.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"basevictim"
	"basevictim/internal/atomicio"
	"basevictim/internal/cliexit"
	"basevictim/internal/obs"
	"basevictim/internal/sim"
	"basevictim/internal/trace"
)

// decodeStat captures how well trace decoding batched: mean ops per
// refill near trace.BatchOps means per-record reader overhead was
// fully amortized.
type decodeStat struct {
	Batches   uint64  `json:"batches"`
	Ops       uint64  `json:"ops"`
	MeanBatch float64 `json:"mean_batch"`
}

type throughputStat struct {
	Trace        string  `json:"trace"`
	Org          string  `json:"org"`
	Instructions uint64  `json:"instructions"`
	Seconds      float64 `json:"seconds"`
	MIPS         float64 `json:"mips"`
	// AllocObjects counts heap allocations during the measured run
	// (setup + warmup + steady state); AllocsPerAccess divides by the
	// instructions processed — every instruction accesses the hierarchy
	// at least once (fetch), so this is an upper bound on steady-state
	// garbage per access. With the arena-backed run state it should be
	// ~0.001 or less; drift upward means the hot path regained an
	// allocation (TestSteadyStateZeroAllocs pins the sharp version).
	AllocObjects    uint64  `json:"alloc_objects"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
	// Decode is set on the decode-batch entry only: the raw BatchReader
	// decode measurement over an in-memory recording of the same trace.
	Decode *decodeStat `json:"decode,omitempty"`
	// Metrics is the run's deterministic observability snapshot —
	// cache decision counters, stall attribution, DRAM latency buckets
	// — so a throughput regression can be correlated with a behavior
	// change (e.g. more victim rejects) from the artifact alone.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// hostInfo pins the machine and build the numbers were taken on;
// comparing BENCH files from different hosts or commits is
// apples-to-oranges without it.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitSHA     string `json:"git_sha,omitempty"`
}

type expStat struct {
	ID           string  `json:"id"`
	Seconds      float64 `json:"seconds"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
}

type suiteStat struct {
	Experiments     int     `json:"experiments"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	ParallelWorkers int     `json:"parallel_workers"`
	Speedup         float64 `json:"speedup"`
	TablesIdentical bool    `json:"tables_identical"`
}

type report struct {
	Date         string           `json:"date"`
	Host         hostInfo         `json:"host"`
	Instructions uint64           `json:"instructions"`
	MaxTraces    int              `json:"max_traces"`
	Throughput   []throughputStat `json:"throughput"`
	Experiments  []expStat        `json:"experiments"`
	Suite        suiteStat        `json:"suite"`
}

// gitSHA resolves HEAD without shelling out: .git/HEAD either holds
// the hash directly (detached) or names a ref file to read. Best
// effort — a missing or unreadable .git yields "".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			// Packed refs: scan .git/packed-refs for the ref name.
			packed, perr := os.ReadFile(".git/packed-refs")
			if perr != nil {
				return ""
			}
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, ok := strings.CutSuffix(line, " "+ref); ok {
					return strings.TrimSpace(hash)
				}
			}
			return ""
		}
		return strings.TrimSpace(string(b))
	}
	return s
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", cliexit.Describe(err))
		os.Exit(cliexit.Code(err))
	}
}

func run(ctx context.Context) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "output path (default BENCH_<date>.json)")
		ins        = fs.Uint64("ins", 60_000, "instructions per thread for the experiment passes")
		traces     = fs.Int("traces", 3, "trace cap per experiment")
		mipsN      = fs.Uint64("mips-ins", 1_000_000, "instructions for the raw throughput measurement")
		compare    = fs.Bool("compare", false, "compare two snapshots: bench -compare old.json new.json")
		maxRegress = fs.Float64("max-regress", 10, "with -compare, fail if any throughput entry drops by more than this percent")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes exactly two snapshot paths, got %d", fs.NArg())
		}
		return compareSnapshots(os.Stdout, fs.Arg(0), fs.Arg(1), *maxRegress)
	}

	rep := report{
		Date: time.Now().Format("2006-01-02"),
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GitSHA:     gitSHA(),
		},
		Instructions: *ins,
		MaxTraces:    *traces,
	}
	if *out == "" {
		// Suffix the commit so snapshots from different commits on the
		// same day don't overwrite each other.
		*out = "BENCH_" + rep.Date
		if sha := rep.Host.GitSHA; len(sha) >= 12 {
			*out += "_" + sha[:12]
		}
		*out += ".json"
	}

	fmt.Fprintf(os.Stderr, "throughput: %d instructions on %d core(s)\n", *mipsN, rep.Host.NumCPU)
	for _, org := range []string{"uncompressed", "basevictim"} {
		st, err := throughput(ctx, "soplex.p1", org, *mipsN)
		if err != nil {
			return err
		}
		rep.Throughput = append(rep.Throughput, st)
		fmt.Fprintf(os.Stderr, "  %-13s %6.2f MIPS  %.4f allocs/access\n", org, st.MIPS, st.AllocsPerAccess)
	}
	st, err := decodeThroughput("soplex.p1", *mipsN)
	if err != nil {
		return err
	}
	rep.Throughput = append(rep.Throughput, st)
	fmt.Fprintf(os.Stderr, "  %-13s %6.2f Mrec/s  mean batch %.0f ops\n", st.Org, st.MIPS, st.Decode.MeanBatch)

	fmt.Fprintf(os.Stderr, "experiments: ins=%d traces=%d (serial, fresh session each)\n", *ins, *traces)
	for _, id := range basevictim.Experiments() {
		st, err := experiment(ctx, id, *ins, *traces)
		if err != nil {
			return err
		}
		rep.Experiments = append(rep.Experiments, st)
		fmt.Fprintf(os.Stderr, "  %-22s %7.2fs  %8.1f MB  %9d objects\n",
			st.ID, st.Seconds, float64(st.AllocBytes)/(1<<20), st.AllocObjects)
	}

	suite, err := suiteComparison(ctx, *ins, *traces)
	if err != nil {
		return err
	}
	rep.Suite = suite
	fmt.Fprintf(os.Stderr, "suite: serial %.2fs, parallel(%d) %.2fs, speedup %.2fx, identical=%v\n",
		suite.SerialSeconds, suite.ParallelWorkers, suite.ParallelSeconds, suite.Speedup, suite.TablesIdentical)
	if !suite.TablesIdentical {
		return fmt.Errorf("parallel tables differ from serial tables")
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	// An atomic write keeps a previous snapshot intact if this run is
	// killed mid-write: the temp file renames into place or nothing does.
	if err := atomicio.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
	return nil
}

// throughput times one raw simulation and reports millions of
// simulated instructions per wall-clock second, plus the heap
// allocation count over the same run (Mallocs is a cumulative
// counter, so the delta is GC-independent).
func throughput(ctx context.Context, traceName, org string, ins uint64) (throughputStat, error) {
	tr, err := basevictim.TraceByName(traceName)
	if err != nil {
		return throughputStat{}, err
	}
	cfg := basevictim.BaseVictimConfig()
	cfg.Org = basevictim.OrgKind(org)
	ctx = sim.WithObserver(ctx, &sim.Observer{Registry: obs.NewRegistry()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := basevictim.RunContext(ctx, tr, cfg, ins)
	if err != nil {
		return throughputStat{}, err
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	return throughputStat{
		Trace:           traceName,
		Org:             org,
		Instructions:    res.Instructions,
		Seconds:         sec,
		MIPS:            float64(res.Instructions) / sec / 1e6,
		AllocObjects:    allocs,
		AllocsPerAccess: float64(allocs) / float64(res.Instructions),
		Metrics:         res.Obs,
	}, nil
}

// decodeThroughput measures the batched trace decoder alone: it
// records ops from the named trace's generator into an in-memory
// .bvtr image, then times a BatchReader pass over it. The entry's
// MIPS field is millions of records decoded per second, and Decode
// carries the batch statistics.
func decodeThroughput(traceName string, ops uint64) (throughputStat, error) {
	tr, err := basevictim.TraceByName(traceName)
	if err != nil {
		return throughputStat{}, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return throughputStat{}, err
	}
	stream := tr.Stream()
	for i := uint64(0); i < ops; i++ {
		op, ok := stream.Next()
		if !ok {
			break
		}
		if err := w.Write(op); err != nil {
			return throughputStat{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return throughputStat{}, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r, err := trace.NewBatchReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return throughputStat{}, err
	}
	var decoded uint64
	for {
		batch, err := r.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return throughputStat{}, err
		}
		decoded += uint64(len(batch))
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	bs := r.Stats()
	return throughputStat{
		Trace:           traceName,
		Org:             "decode-batch",
		Instructions:    decoded,
		Seconds:         sec,
		MIPS:            float64(decoded) / sec / 1e6,
		AllocObjects:    allocs,
		AllocsPerAccess: float64(allocs) / float64(decoded),
		Decode: &decodeStat{
			Batches:   bs.Batches,
			Ops:       bs.Ops,
			MeanBatch: float64(bs.Ops) / float64(bs.Batches),
		},
	}, nil
}

// experiment times one experiment on a fresh serial session and
// captures its heap allocation cost via MemStats deltas.
func experiment(ctx context.Context, id string, ins uint64, traces int) (expStat, error) {
	s := basevictim.NewSession(ins)
	s.MaxTraces = traces
	s.Workers = 1
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := basevictim.RunExperimentContext(ctx, s, id); err != nil {
		return expStat{}, err
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return expStat{
		ID:           id,
		Seconds:      sec,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
	}, nil
}

// suiteComparison runs every experiment back to back on one session,
// once with Workers=1 and once with the full worker budget, and checks
// the rendered tables are byte-identical.
func suiteComparison(ctx context.Context, ins uint64, traces int) (suiteStat, error) {
	render := func(workers int) (string, float64, error) {
		s := basevictim.NewSession(ins)
		s.MaxTraces = traces
		s.Workers = workers
		var b strings.Builder
		start := time.Now()
		for _, id := range basevictim.Experiments() {
			tab, err := basevictim.RunExperimentContext(ctx, s, id)
			if err != nil {
				return "", 0, fmt.Errorf("%s (workers=%d): %w", id, workers, err)
			}
			b.WriteString(tab.Format())
		}
		return b.String(), time.Since(start).Seconds(), nil
	}
	workers := runtime.GOMAXPROCS(0)
	serialTab, serialSec, err := render(1)
	if err != nil {
		return suiteStat{}, err
	}
	parTab, parSec, err := render(workers)
	if err != nil {
		return suiteStat{}, err
	}
	return suiteStat{
		Experiments:     len(basevictim.Experiments()),
		SerialSeconds:   serialSec,
		ParallelSeconds: parSec,
		ParallelWorkers: workers,
		Speedup:         serialSec / parSec,
		TablesIdentical: serialTab == parTab,
	}, nil
}

// loadReport reads one BENCH snapshot.
func loadReport(path string) (report, error) {
	var rep report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// pctDelta renders a benchstat-style signed percentage, or "new"/"gone"
// when the metric exists on only one side.
func pctDelta(old, new float64, haveOld, haveNew bool) string {
	switch {
	case !haveOld && !haveNew:
		return ""
	case !haveOld:
		return "new"
	case !haveNew:
		return "gone"
	case old == 0:
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// compareSnapshots prints a delta table between two BENCH snapshots
// and fails when any throughput entry of the old snapshot regressed by
// more than maxRegress percent or is missing from the new one, so a
// snapshot that lost its measurements cannot pass. Only throughput
// MIPS gates: experiment wall-clock and suite timings are printed for
// context but are too noisy on shared CI hosts to block on.
func compareSnapshots(w io.Writer, oldPath, newPath string, maxRegress float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	if oldRep.Host.NumCPU != newRep.Host.NumCPU || oldRep.Host.GoVersion != newRep.Host.GoVersion {
		fmt.Fprintf(w, "note: hosts differ (%s/%d cpu vs %s/%d cpu); deltas include host effects\n",
			oldRep.Host.GoVersion, oldRep.Host.NumCPU, newRep.Host.GoVersion, newRep.Host.NumCPU)
	}

	type key struct{ trace, org string }
	oldTP := make(map[key]throughputStat)
	for _, st := range oldRep.Throughput {
		oldTP[key{st.Trace, st.Org}] = st
	}
	fmt.Fprintf(w, "%-42s %10s %10s %9s\n", "throughput (MIPS)", "old", "new", "delta")
	var failures []string
	seen := make(map[key]bool)
	for _, st := range newRep.Throughput {
		k := key{st.Trace, st.Org}
		seen[k] = true
		old, ok := oldTP[k]
		fmt.Fprintf(w, "%-42s %10.2f %10.2f %9s\n",
			st.Trace+"/"+st.Org, old.MIPS, st.MIPS, pctDelta(old.MIPS, st.MIPS, ok, true))
		if ok && old.MIPS > 0 && (old.MIPS-st.MIPS)/old.MIPS*100 > maxRegress {
			failures = append(failures,
				fmt.Sprintf("%s/%s: %.2f -> %.2f MIPS (%.1f%% > %.1f%% allowed)",
					st.Trace, st.Org, old.MIPS, st.MIPS, (old.MIPS-st.MIPS)/old.MIPS*100, maxRegress))
		}
	}
	for _, st := range oldRep.Throughput {
		if k := (key{st.Trace, st.Org}); !seen[k] {
			fmt.Fprintf(w, "%-42s %10.2f %10s %9s\n", st.Trace+"/"+st.Org, st.MIPS, "-", "gone")
			failures = append(failures, fmt.Sprintf("%s/%s: missing from %s", st.Trace, st.Org, newPath))
		}
	}

	fmt.Fprintf(w, "%-42s %10s %10s %9s\n", "allocs/access", "old", "new", "delta")
	for _, st := range newRep.Throughput {
		old, ok := oldTP[key{st.Trace, st.Org}]
		fmt.Fprintf(w, "%-42s %10.4f %10.4f %9s\n", st.Trace+"/"+st.Org,
			old.AllocsPerAccess, st.AllocsPerAccess,
			pctDelta(old.AllocsPerAccess, st.AllocsPerAccess, ok, true))
	}

	oldExp := make(map[string]expStat)
	for _, st := range oldRep.Experiments {
		oldExp[st.ID] = st
	}
	fmt.Fprintf(w, "%-42s %10s %10s %9s\n", "experiment (seconds)", "old", "new", "delta")
	for _, st := range newRep.Experiments {
		old, ok := oldExp[st.ID]
		fmt.Fprintf(w, "%-42s %10.2f %10.2f %9s\n", st.ID, old.Seconds, st.Seconds,
			pctDelta(old.Seconds, st.Seconds, ok, true))
	}
	fmt.Fprintf(w, "%-42s %10.2f %10.2f %9s\n", "suite/serial (seconds)",
		oldRep.Suite.SerialSeconds, newRep.Suite.SerialSeconds,
		pctDelta(oldRep.Suite.SerialSeconds, newRep.Suite.SerialSeconds, true, true))
	fmt.Fprintf(w, "%-42s %10.2f %10.2f %9s\n", "suite/parallel (seconds)",
		oldRep.Suite.ParallelSeconds, newRep.Suite.ParallelSeconds,
		pctDelta(oldRep.Suite.ParallelSeconds, newRep.Suite.ParallelSeconds, true, true))

	if len(failures) > 0 {
		return &cliexit.GateError{Msg: fmt.Sprintf(
			"throughput gate failed (-max-regress %.1f%%):\n  %s",
			maxRegress, strings.Join(failures, "\n  "))}
	}
	return nil
}
