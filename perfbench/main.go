// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator (sim-*) or the bvsimd service
// (serve-open), checks every output, and prints the end-to-end metrics
// (untraced run, --trace 0) or the per-layer metrics (traced run,
// --trace 1), each with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload sim-reuse --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package with cmd/bvsim/default.pgo and builds
// bvsimd exactly as `go build ./cmd/bvsimd` does.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"basevictim/internal/cliexit"
	otrace "basevictim/internal/obs/trace"
)

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// On sim-* one simulation is one request: MIPS and req_p50_ms are taken
// over each (trace, org) simulation's median time across the run's
// rounds, at the reference host speed (probe.go). A sim-* run has one
// such time per job, 4 to 12, far too few for a p99 with ten samples
// beyond it (tailOK), so there req_p99_ms is the slowest job's median
// time. On serve-open the latencies run from each request's due time to
// its response, and the MIPS are the median over fresh requests of
// simulated instructions over latency.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"mips_uncompressed", "MIPS"},
	{"mips_basevictim", "MIPS"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// layer a workload does not run reads 0 there (serve.* on sim-*).
var perLayer = []metricSpec{
	{"workload.gen_ns_per_op", "ns/op"},
	{"workload.sizer_ns_per_call", "ns/call"},
	{"workload.sizer_calls_per_kins", "calls/kins"},
	{"compress.bdi_ns_per_line", "ns/line"},
	{"cpu.self_ns_per_ins", "ns/ins"},
	{"cpu.mem_calls_per_kins", "calls/kins"},
	{"hierarchy.self_ns_per_call", "ns/call"},
	{"hierarchy.calls_per_kins", "calls/kins"},
	{"ccache.ns_per_op.uncompressed", "ns/op"},
	{"ccache.ns_per_op.basevictim", "ns/op"},
	{"ccache.ops_per_kins", "ops/kins"},
	{"dram.ns_per_access", "ns/access"},
	{"dram.accesses_per_kins", "accesses/kins"},
	{"sim.setup_ms", "ms"},
	{"sim.allocs_per_kins", "allocs/kins"},
	{"trace.decode_ns_per_op", "ns/op"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.exec_ms_p99", "ms"},
	{"serve.store_read_ms_p50", "ms"},
	{"serve.store_claim_ms_p50", "ms"},
	{"serve.store_write_ms_p50", "ms"},
	{"serve.memo_answer_ratio", "ratio"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.ccache_dram_share", "ratio"},
	{"unattributed_ns_per_ins", "ns/ins"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runEnv) (*report, error){
	"sim-reuse":      simWorkload,
	"sim-l2resident": simWorkload,
	"sim-stream":     simWorkload,
	"serve-open":     serveWorkload,
}

// setupReps is how many times a run sets up; setup_s is the median. A
// set-up takes 30 to 150 ms, so its median needs many of them to hold
// still on a noisy host.
const setupReps = 15

// runDeadline bounds a whole run, whatever --seconds asks for.
const runDeadline = 170 * time.Second

// runEnv is one invocation's settings.
type runEnv struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tracer   *otrace.Tracer // nil unless tracing
	bvsimd   string
	out      string
}

// report collects a run's counts, metrics and informational lines.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	info              []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// setTimings sets timings measured in this run at the reference host
// speed (see probe.go), and prints them as measured. Rates (MIPS) scale
// inversely to times.
func (r *report) setTimings(raw map[string]float64, pr *prober) {
	f := pr.factor()
	names := make([]string, 0, len(raw))
	for n := range raw {
		names = append(names, n)
	}
	sort.Strings(names)
	var line []string
	for _, n := range names {
		v := raw[n]
		line = append(line, fmt.Sprintf("%s %.4f", n, v))
		if strings.HasPrefix(n, "mips_") {
			r.set(n, v/f)
		} else {
			r.set(n, v*f)
		}
	}
	r.infof("host probe: median %.3f ms over %d probes, reference %.3f ms; as measured: %s",
		median(pr.times)/1e6, len(pr.times), ms(probeRef), strings.Join(line, ", "))
}

func (r *report) infof(format string, a ...any) { r.info = append(r.info, fmt.Sprintf(format, a...)) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the mode's metrics; every one must have been measured.
func (r *report) result(specs []metricSpec) (resultOut, error) {
	out := resultOut{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if r.attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed: chooses the traces and the request schedule")
		seconds = fs.Int("seconds", 25, "measured time per run")
		traced  = fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		bvsimd  = fs.String("bvsimd", "", "bvsimd binary (serve-open)")
		out     = fs.String("out", ".", "directory for span exports and the checkpoint store")
	)
	if err := fs.Parse(args); err != nil {
		return cliexit.Usage
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return cliexit.Usage
	}
	if *name == "serve-open" && !tailOK(serveRequests(time.Duration(*seconds)*time.Second), 0.99) {
		fmt.Fprintf(stderr, "perfbench: serve-open at %.0f requests/s needs more --seconds for a p99 with %d requests beyond it\n", serveRate, minTail)
		return cliexit.Usage
	}
	env := &runEnv{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, bvsimd: *bvsimd, out: *out}
	ident, err := buildIdentity(env.bvsimd)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cliexit.Failure
	}
	var rec *otrace.Recorder
	if env.trace {
		rec = otrace.NewRecorder(1 << 14)
		env.tracer = otrace.New(otrace.Config{Seed: env.seed, Peer: "perfbench", MaxSpans: 1 << 12, Recorder: rec})
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rep, err := drive(ctx, env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", env.workload, err)
		return cliexit.Code(err)
	}
	specs := endToEnd
	if env.trace {
		specs = perLayer
	}
	res, err := rep.result(specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", env.workload, err)
		return cliexit.Failure
	}
	if rec != nil {
		path := filepath.Join(env.out, fmt.Sprintf("spans-%s-seed%d.jsonl", env.workload, env.seed))
		if err := rec.WriteJSONL(path, "perfbench"); err != nil {
			fmt.Fprintf(stderr, "perfbench: span export: %v\n", err)
			return cliexit.Failure
		}
		rep.infof("spans: %s", path)
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%d trace=%d\n", env.workload, env.seed, *seconds, *traced)
	for _, l := range append(ident, rep.info...) {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cliexit.Failure
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return cliexit.OK
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
