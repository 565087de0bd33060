// Command bvsim runs one trace of the workload suite on one LLC
// configuration and prints the detailed outcome, optionally next to
// the uncompressed baseline.
//
// Usage:
//
//	bvsim -trace mcf.p1 -org basevictim -ins 1000000 -compare
//	bvsim -trace mcf.p1 -check full            # lockstep shadow verification
//	bvsim -check cheap -inject tag@100000      # prove the checker sees faults
//	bvsim -replay mcf.p1.bvtr -values mcf.p1   # replay a trace file
//	bvsim -trace mcf.p1 -obs                   # print the metrics snapshot
//	bvsim -check full -obs-events-out ev.jsonl # decision-event forensics
//	bvsim -list
//
// Runs are cancellable (SIGINT/SIGTERM) and -timeout bounds each
// simulation. Exit codes follow internal/cliexit: 0 ok, 1 error,
// 2 usage, 3 verification violation, 4 cancelled or timed out.
//
// Observability: -obs prints the run's deterministic metrics snapshot
// (cache decision counters, stall attribution, DRAM latency histogram)
// after the result; -obs-events keeps the last N cache decision events
// in a ring and -obs-events-out flushes them as JSONL — also when the
// run fails, so a checker violation leaves the events leading up to it
// on disk; -obs-listen serves /debug/vars, /progress and /debug/pprof/
// while the simulation runs. None of it changes simulated results.
package main

import (
	"context"
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
	"basevictim/internal/cliexit"
	"basevictim/internal/obs"
	"basevictim/internal/policy"
	"basevictim/internal/sim"
	"basevictim/internal/trace"
	"basevictim/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bvsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceName = fs.String("trace", "mcf.p1", "trace name from the suite (see -list)")
		org       = fs.String("org", "basevictim", "LLC organization: "+strings.Join(sim.OrgKinds(), "|"))
		pol       = fs.String("policy", "nru", "baseline replacement policy: "+strings.Join(policy.Names(), "|"))
		victim    = fs.String("victim", "ecm", "victim-cache selector: "+strings.Join(policy.VictimNames(), "|"))
		sizeMB    = fs.Int("size", 2, "LLC size in MB")
		ways      = fs.Int("ways", 16, "LLC physical ways")
		ins       = fs.Uint64("ins", 1_000_000, "instructions to simulate")
		prefetch  = fs.Bool("prefetch", true, "enable prefetchers")
		compare   = fs.Bool("compare", false, "also run the uncompressed baseline and print ratios")
		list      = fs.Bool("list", false, "list available traces and exit")
		replay    = fs.String("replay", "", "replay a .bvtr trace file instead of a suite trace")
		values    = fs.String("values", "", "suite trace supplying the value model for -replay (default: -trace)")
		checkLvl  = fs.String("check", "off", "lockstep shadow verification: off|cheap|full")
		inject    = fs.String("inject", "", "fault injection spec, e.g. tag@1000,size (kinds: tag, size, backinval, writeback)")
		seed      = fs.Uint64("seed", 1, "fault-injection placement seed")
		workers   = fs.Int("workers", 0, "concurrent simulations for -compare (0 = GOMAXPROCS, 1 = serial)")
		timeout   = fs.Duration("timeout", 0, "per-simulation deadline (0 = unbounded), e.g. 90s")
		obsPrint  = fs.Bool("obs", false, "print the run's metrics snapshot after the result")
		obsEvents = fs.Int("obs-events", 0, "record the last N cache decision events in a ring buffer")
		obsOut    = fs.String("obs-events-out", "", "flush recorded decision events to this JSONL file, also on failure (implies -obs-events 4096)")
		obsAddr   = fs.String("obs-listen", "", "serve live metrics, /progress and pprof on this address, e.g. :6060")
		quiet     = fs.Bool("quiet", false, "suppress notices and observability chatter; keep results and errors")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, t := range basevictim.Traces() {
			tag := "insensitive"
			if t.Sensitive {
				tag = "sensitive"
			}
			fmt.Fprintf(stdout, "%-16s %-12s %-11s footprint=%dMB\n", t.Name, t.Category, tag, t.TotalLines*64>>20)
		}
		return 0
	}

	cfg := basevictim.BaseVictimConfig()
	cfg.Org = basevictim.OrgKind(*org)
	cfg.Policy = *pol
	cfg.VictimPolicy = *victim
	cfg.LLCSizeBytes = *sizeMB << 20
	cfg.Prefetch = *prefetch
	cfg.LLCWays = *ways
	cfg.Check = *checkLvl
	cfg.Inject = *inject
	cfg.Seed = *seed
	// Validate the whole configuration before any simulation runs, so a
	// typo or an unrealizable LLC geometry fails in milliseconds as a
	// usage error, with every flag's valid values spelled out.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "bvsim:", err)
		fs.Usage()
		return cliexit.Usage
	}

	// Observability setup. One observer covers whichever run mode
	// executes below; for -compare only the primary leg is observed
	// (comparePair detaches the baseline).
	events := *obsEvents
	if *obsOut != "" && events == 0 {
		events = 4096
	}
	var observer *sim.Observer
	var ring *obs.Ring
	if events > 0 {
		ring = obs.NewRing(events)
	}
	if *obsPrint || *obsAddr != "" || ring != nil {
		observer = &sim.Observer{Ring: ring}
		if *obsPrint || *obsAddr != "" {
			observer.Registry = obs.NewRegistry()
		}
	}
	var coll *obs.Collector
	if *obsAddr != "" {
		coll = obs.NewCollector()
		srv, err := obs.Serve(*obsAddr, coll)
		if err != nil {
			return fatal(stderr, err)
		}
		defer srv.Close()
		label := *traceName
		if *replay != "" {
			label = *replay
		}
		job := coll.Monitor.StartJob(label+" "+*org, *ins)
		defer job.Done()
		observer.Job = job
		if !*quiet {
			fmt.Fprintf(stderr, "bvsim: observability on http://%s (/progress, /debug/vars, /debug/pprof/)\n", srv.Addr())
		}
	}
	if observer != nil {
		ctx = sim.WithObserver(ctx, observer)
	}
	// flushEvents runs on success AND failure: after a checker
	// violation the ring holds the decisions leading up to it, which is
	// exactly when the JSONL dump is most wanted.
	flushEvents := func() {
		if ring == nil || *obsOut == "" {
			return
		}
		if err := ring.WriteJSONL(*obsOut); err != nil {
			fmt.Fprintln(stderr, "bvsim: writing decision events:", err)
		} else if !*quiet {
			fmt.Fprintf(stderr, "bvsim: wrote %d decision events to %s (%d recorded, %d dropped)\n",
				ring.Len(), *obsOut, ring.Total(), ring.Dropped())
		}
	}
	// finishObs merges and prints the run's snapshot once it exists.
	finishObs := func(res basevictim.Result) {
		flushEvents()
		if res.Obs == nil {
			return
		}
		coll.MergeRun(*res.Obs)
		if *obsPrint {
			fmt.Fprintln(stdout, "-- metrics --")
			fmt.Fprint(stdout, res.Obs.Format())
		}
	}

	if *replay != "" {
		vname := *values
		if vname == "" {
			vname = *traceName
		}
		res, err := replayFile(ctx, *timeout, *replay, vname, cfg, *ins)
		if err != nil {
			flushEvents()
			return fatal(stderr, err)
		}
		printResult(stdout, res)
		printNotices(stderr, res, *quiet)
		finishObs(res)
		return 0
	}

	tr, err := basevictim.TraceByName(*traceName)
	if err != nil {
		return fatal(stderr, err)
	}

	if !*compare {
		res, err := runOne(ctx, *timeout, tr, cfg, *ins)
		if err != nil {
			flushEvents()
			return fatal(stderr, err)
		}
		printResult(stdout, res)
		printNotices(stderr, res, *quiet)
		finishObs(res)
		return 0
	}

	// -compare runs the configured org and the uncompressed baseline;
	// with 2+ workers the two independent simulations run concurrently.
	res, base, err := comparePair(ctx, *timeout, tr, cfg, *ins, *workers)
	if err != nil {
		flushEvents()
		return fatal(stderr, err)
	}
	printResult(stdout, res)
	printNotices(stderr, res, *quiet)
	fmt.Fprintln(stdout, "-- uncompressed baseline --")
	printResult(stdout, base)
	printNotices(stderr, base, *quiet)
	pair := basevictim.Pair{Run: res, Base: base}
	fmt.Fprintf(stdout, "IPC ratio:        %.4f\n", pair.IPCRatio())
	fmt.Fprintf(stdout, "DRAM read ratio:  %.4f\n", pair.DRAMReadRatio())
	finishObs(res)
	return 0
}

// runOne simulates one trace under ctx with its own -timeout window.
func runOne(ctx context.Context, timeout time.Duration, tr basevictim.Trace, cfg basevictim.Config, ins uint64) (basevictim.Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return basevictim.RunContext(ctx, tr, cfg, ins)
}

// comparePair simulates cfg and its baseline, concurrently when the
// worker budget allows. Each simulation gets its own -timeout window.
// Output order is deterministic either way.
func comparePair(ctx context.Context, timeout time.Duration, tr basevictim.Trace, cfg basevictim.Config, ins uint64, workers int) (res, base basevictim.Result, err error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The baseline leg runs detached from any observer on ctx: the
	// per-run registry and ring are single-goroutine, and the printed
	// metrics should describe the configured organization only.
	baseCtx := sim.WithObserver(ctx, nil)
	if workers < 2 {
		if res, err = runOne(ctx, timeout, tr, cfg, ins); err != nil {
			return res, base, err
		}
		base, err = runOne(baseCtx, timeout, tr, cfg.Baseline(), ins)
		return res, base, err
	}
	var baseErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		base, baseErr = runOne(baseCtx, timeout, tr, cfg.Baseline(), ins)
	}()
	res, err = runOne(ctx, timeout, tr, cfg, ins)
	<-done
	if err != nil {
		return res, base, err
	}
	return res, base, baseErr
}

// replayFile runs a recorded .bvtr trace through the simulator, using
// the named suite trace's value model for compressed sizes.
func replayFile(ctx context.Context, timeout time.Duration, path, valuesTrace string, cfg basevictim.Config, ins uint64) (basevictim.Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	vt, ok := workload.ByName(workload.Suite(), valuesTrace)
	if !ok {
		return basevictim.Result{}, fmt.Errorf("unknown value-model trace %q", valuesTrace)
	}
	f, err := os.Open(path)
	if err != nil {
		return basevictim.Result{}, err
	}
	defer f.Close()
	// The batch decoder is record-for-record identical to trace.Reader
	// (internal/trace TestBatchMatchesScalar* pin this) and much faster
	// on large recorded traces.
	r, err := trace.NewBatchReader(f)
	if err != nil {
		return basevictim.Result{}, err
	}
	cfg.Instructions = ins
	res, err := sim.RunStreamCtx(ctx, r, vt.Values(), cfg)
	if err != nil {
		return basevictim.Result{}, err
	}
	if r.Err() != nil {
		return basevictim.Result{}, r.Err()
	}
	res.Trace = path
	return res, nil
}

func printResult(w io.Writer, r basevictim.Result) {
	fmt.Fprintf(w, "trace=%s org=%s\n", r.Trace, r.Org)
	fmt.Fprintf(w, "  instructions: %d  cycles: %d  IPC: %.4f\n", r.Instructions, r.Cycles, r.IPC)
	fmt.Fprintf(w, "  LLC: accesses=%d hits=%d (base=%d victim=%d) misses=%d hitrate=%.3f\n",
		r.LLC.Accesses, r.LLC.Hits, r.LLC.BaseHits, r.LLC.VictimHits, r.LLC.Misses, r.LLC.HitRate())
	fmt.Fprintf(w, "  LLC victim: inserts=%d insertFails=%d silentEvictions=%d dataMoves=%d\n",
		r.LLC.VictimInserts, r.LLC.VictimInsertFail, r.LLC.SilentEvictions, r.LLC.DataMoves)
	fmt.Fprintf(w, "  DRAM: demandReads=%d reads=%d writes=%d\n", r.DemandDRAMReads, r.DRAMReads, r.DRAMWrites)
	fmt.Fprintf(w, "  capacity: logical=%d physical=%d (%.2fx)\n",
		r.LLCLogicalLines, r.LLCPhysicalLines, float64(r.LLCLogicalLines)/float64(r.LLCPhysicalLines))
}

func printNotices(w io.Writer, r basevictim.Result, quiet bool) {
	if quiet {
		return
	}
	for _, n := range r.CheckNotices {
		fmt.Fprintln(w, "bvsim:", n)
	}
}

// fatal reports a run failure and maps it to the shared exit-code
// contract: 3 for a checker violation, 4 for cancellation or an
// expired -timeout (with the cause named), 1 otherwise.
func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "bvsim:", cliexit.Describe(err))
	return cliexit.Code(err)
}

// usage reports a bad flag or argument (exit 2).
func usage(w io.Writer, err error) int {
	fmt.Fprintln(w, "bvsim:", err)
	return cliexit.Usage
}
