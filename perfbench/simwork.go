package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"basevictim/internal/obs"
	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// simBudgets are the instruction budgets per simulation: long enough
// for the 2 MB LLC to fill and start evicting, short enough for several
// rounds per run. L2-resident traces run fast, so they get more.
var simBudgets = map[string]uint64{
	"sim-reuse":      1_000_000,
	"sim-l2resident": 2_000_000,
	"sim-stream":     1_000_000,
}

// mixBudget is the per-thread budget of sim-reuse's four-way mix.
const mixBudget = 250_000

// warmupBudget is the short run per (trace, org) that warms the host
// (code, heap, the simulator's arena pool) during set-up.
const warmupBudget = 50_000

// minRounds is the fewest timed rounds a run makes, whatever --seconds.
const minRounds = 3

var orgs = []sim.OrgKind{sim.OrgUncompressed, sim.OrgBaseVictim}

// simJob is one simulation of a round: one trace (or the mix) on one
// organization.
type simJob struct {
	single *workload.Profile
	mix    *[4]workload.Profile
	cfg    sim.Config
}

func (j simJob) label() string {
	if j.mix != nil {
		m := j.mix
		return fmt.Sprintf("mix(%s+%s+%s+%s)/%s", m[0].Name, m[1].Name, m[2].Name, m[3].Name, j.cfg.Org)
	}
	return j.single.Name + "/" + string(j.cfg.Org)
}

// instructions is the simulated work the job measures.
func (j simJob) instructions() uint64 {
	if j.mix != nil {
		return 4 * j.cfg.Instructions
	}
	return j.cfg.Instructions
}

// simOutcome is a job's result in canonical text (the digest's unit) and
// its observability snapshot when run observed.
type simOutcome struct {
	canon  string
	result sim.Result
	obs    *obs.Snapshot
}

// canonSingle renders every simulated statistic of a single-thread run.
func canonSingle(r sim.Result) string {
	return fmt.Sprintf("%s/%s ins=%d cycles=%d ipc=%x demand_reads=%d reads=%d writes=%d llc=%+v logical=%d",
		r.Trace, r.Org, r.Instructions, r.Cycles, math.Float64bits(r.IPC),
		r.DemandDRAMReads, r.DRAMReads, r.DRAMWrites, r.LLC, r.LLCLogicalLines)
}

func canonMix(r sim.MultiResult, org sim.OrgKind) string {
	ipc := make([]string, len(r.PerIPC))
	for i, v := range r.PerIPC {
		ipc[i] = fmt.Sprintf("%x", math.Float64bits(v))
	}
	return fmt.Sprintf("mix%v/%s ipc=%v cycles=%v llc=%+v", r.Mix, org, ipc, r.Cycles, r.LLCStat)
}

// runJob executes one job; observe attaches a metrics registry.
func runJob(ctx context.Context, j simJob, observe bool) (simOutcome, error) {
	var o *sim.Observer
	if observe {
		o = &sim.Observer{Registry: obs.NewRegistry()}
	}
	ctx = sim.WithObserver(ctx, o)
	if j.mix != nil {
		r, err := sim.RunMixCtx(ctx, *j.mix, j.cfg)
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{canon: canonMix(r, j.cfg.Org), obs: r.Obs}, nil
	}
	r, err := sim.RunSingleCtx(ctx, *j.single, j.cfg)
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{canon: canonSingle(r), result: r, obs: r.Obs}, nil
}

// simJobs expands a selection into one round's jobs, each trace under
// both organizations back to back.
func simJobs(sel selection, budget uint64) []simJob {
	var jobs []simJob
	for i := range sel.singles {
		for _, org := range orgs {
			cfg := sim.Default()
			cfg.Org, cfg.Instructions = org, budget
			jobs = append(jobs, simJob{single: &sel.singles[i], cfg: cfg})
		}
	}
	if sel.mix != nil {
		for _, org := range orgs {
			cfg := sim.Default()
			cfg.Org, cfg.Instructions = org, mixBudget
			jobs = append(jobs, simJob{mix: sel.mix, cfg: cfg})
		}
	}
	return jobs
}

// simSetup is one set-up: select the traces by property and warm the
// host with a short run of every job.
func simSetup(ctx context.Context, name string, seed uint64) ([]simJob, selection, error) {
	sel, err := selectTraces(name, seed)
	if err != nil {
		return nil, sel, err
	}
	jobs := simJobs(sel, simBudgets[name])
	for _, j := range jobs {
		w := j
		w.cfg.Instructions = warmupBudget
		if w.mix != nil {
			w.cfg.Instructions = warmupBudget / 4
		}
		if _, err := runJob(ctx, w, false); err != nil {
			return nil, sel, err
		}
	}
	return jobs, sel, nil
}

// digest condenses canonical results into a short stable hash.
func digest(canon []string) string {
	h := sha256.Sum256([]byte(strings.Join(canon, "\n")))
	return hex.EncodeToString(h[:8])
}

// pairs yields the index of each single-thread trace's uncompressed job;
// simJobs puts its basevictim job right after it.
func pairs(jobs []simJob) []int {
	var out []int
	for i, j := range jobs {
		if j.single != nil && j.cfg.Org == sim.OrgUncompressed {
			out = append(out, i)
		}
	}
	return out
}

// modelStats are the simulated model's own statistics over the
// single-thread traces: identical for any change that only makes the
// simulator faster.
func modelStats(jobs []simJob, ref []simOutcome) []string {
	var (
		logRatio                  float64
		bvReads, unReads          uint64
		victimHits, victimInserts uint64
		pfIssued, pfConfirms      uint64
		rowHits, dramReads        uint64
	)
	for _, i := range pairs(jobs) {
		un, bv := ref[i].result, ref[i+1].result
		logRatio += math.Log(bv.IPC / un.IPC)
		unReads += un.DemandDRAMReads
		bvReads += bv.DemandDRAMReads
		victimHits += bv.LLC.VictimHits
		victimInserts += bv.LLC.VictimInserts
		for _, o := range []*obs.Snapshot{ref[i].obs, ref[i+1].obs} {
			pfIssued += o.Counters["prefetch.llc.issued"]
			pfConfirms += o.Counters["prefetch.llc.confirms"]
			rowHits += o.Counters["dram.row_hits"]
			dramReads += o.Counters["dram.reads"]
		}
	}
	return []string{
		fmt.Sprintf("model.ipc_ratio_geomean=%.6f", math.Exp(logRatio/float64(len(pairs(jobs))))),
		fmt.Sprintf("model.dram_read_ratio=%.6f", ratio(float64(bvReads), float64(unReads))),
		fmt.Sprintf("ccache.victim_yield=%.6f", ratio(float64(victimHits), float64(victimInserts))),
		fmt.Sprintf("prefetch.llc.accuracy=%.6f", ratio(float64(pfConfirms), float64(pfIssued))),
		fmt.Sprintf("dram.row_hit_ratio=%.6f", ratio(float64(rowHits), float64(dramReads))),
	}
}

// invariantViolations lists single-thread traces where Base-Victim made
// more demand DRAM reads than the uncompressed baseline, which the
// design rules out by construction (its baseline cache is managed
// exactly like the uncompressed cache).
func invariantViolations(jobs []simJob, ref []simOutcome) []string {
	var bad []string
	for _, i := range pairs(jobs) {
		un, bv := ref[i].result, ref[i+1].result
		if bv.DemandDRAMReads > un.DemandDRAMReads {
			bad = append(bad, fmt.Sprintf("%s: basevictim demand reads %d > uncompressed %d",
				un.Trace, bv.DemandDRAMReads, un.DemandDRAMReads))
		}
	}
	return bad
}

// roundStats is what the untraced rounds measured.
type roundStats struct {
	rounds     int
	perJob     [][]float64 // ns per simulation, by job index
	attempted  int
	failed     int
	mismatches []string
	mallocs    uint64
	ins        uint64 // simulated by all rounds
	elapsed    time.Duration
}

// typical is each job's median duration (ns) over the rounds: the
// host's slow moments, which on a shared machine come and go within
// seconds, then weigh on no job.
func (st roundStats) typical() []float64 {
	out := make([]float64, len(st.perJob))
	for i, d := range st.perJob {
		out[i] = median(d)
	}
	return out
}

// spreads is each job's round-to-round spread (IQR/median): how noisy
// the host was while the run measured.
func (st roundStats) spreads() []float64 {
	out := make([]float64, len(st.perJob))
	for i, d := range st.perJob {
		out[i] = spread(d)
	}
	return out
}

// timedRounds runs whole rounds of jobs, untraced, until the time is up
// (and at least minRounds). Every result must equal the reference.
func timedRounds(ctx context.Context, jobs []simJob, ref []simOutcome, budget time.Duration, pr *prober) (roundStats, error) {
	st := roundStats{perJob: make([][]float64, len(jobs))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var last time.Duration
	for ; st.rounds < minRounds || time.Since(start)+last <= budget; st.rounds++ {
		r0 := time.Now()
		for i, j := range jobs {
			// Collect the last job's garbage first, so no GC work left by
			// the code under test runs during the probe and moves the
			// factor that scales its own figures.
			runtime.GC()
			pr.probe()
			t0 := time.Now()
			out, err := runJob(ctx, j, false)
			d := time.Since(t0)
			st.attempted++
			if err != nil {
				if ctx.Err() != nil {
					return st, err
				}
				st.failed++
				st.mismatches = append(st.mismatches, fmt.Sprintf("%s: %v", j.label(), err))
				continue
			}
			if out.canon != ref[i].canon {
				st.failed++
				st.mismatches = append(st.mismatches, j.label()+": result differs from the reference run")
			}
			st.ins += j.instructions()
			st.perJob[i] = append(st.perJob[i], float64(d))
		}
		last = time.Since(r0)
	}
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	return st, nil
}

// simWorkload runs one sim-* workload.
func simWorkload(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	root := env.tracer.Start("bench.workload", otrace.KindInternal, "", "")
	root.SetAttr("workload", env.workload)
	defer root.End()

	pr := newProber()
	// Set up several times; the median is setup_s.
	var setups []float64
	var jobs []simJob
	var sel selection
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		jobs, sel, err = simSetup(ctx, env.workload, env.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.infof("traces: %s", strings.Join(sel.names(), ", "))

	// The reference round, observed and untimed: the digest, the model
	// statistics and the invariant come from it, and every timed run
	// must reproduce it.
	ref := make([]simOutcome, len(jobs))
	var canon []string
	for i, j := range jobs {
		out, err := runJob(ctx, j, true)
		rep.attempted++
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", j.label(), err)
		}
		ref[i] = out
		canon = append(canon, out.canon)
	}
	rep.infof("digest: %s (%d simulations)", digest(canon), len(canon))
	rep.infof("model: %s", strings.Join(modelStats(jobs, ref), " "))
	for _, v := range invariantViolations(jobs, ref) {
		rep.failed++
		rep.infof("invariant violated: %s", v)
	}

	window := env.seconds
	if env.trace {
		// The traced run splits its time: untraced rounds give the
		// reference cost the replayed layers must add up to.
		window /= 2
	}
	st, err := timedRounds(ctx, jobs, ref, window, pr)
	if err != nil {
		return nil, err
	}
	rep.attempted += st.attempted
	rep.failed += st.failed
	for _, m := range st.mismatches {
		rep.infof("failed: %s", m)
	}
	sp := st.spreads()
	rep.infof("timed: %d rounds of %d simulations in %.1fs; round-to-round spread (IQR/median) of a job's time: median %.3f, max %.3f",
		st.rounds, len(jobs), st.elapsed.Seconds(), median(sp), sorted(sp)[len(sp)-1])

	if !env.trace {
		// One simulation is one request. Each job's typical latency is
		// its median over the rounds; MIPS and the latency percentiles
		// are taken over those.
		typ := st.typical()
		ins, ns := map[sim.OrgKind]float64{}, map[sim.OrgKind]float64{}
		lat := make([]float64, len(jobs))
		for i, j := range jobs {
			ins[j.cfg.Org] += float64(j.instructions())
			ns[j.cfg.Org] += typ[i]
			lat[i] = typ[i] / 1e6
		}
		rep.set("setup_s", median(setups))
		raw := map[string]float64{
			"mips_uncompressed": ins[sim.OrgUncompressed] / ns[sim.OrgUncompressed] * 1e3,
			"mips_basevictim":   ins[sim.OrgBaseVictim] / ns[sim.OrgBaseVictim] * 1e3,
			"req_p50_ms":        median(lat),
			"req_p99_ms":        sorted(lat)[len(lat)-1], // the slowest job (see endToEnd)
		}
		rep.setTimings(raw, pr)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}

	led, err := traceLedger(ctx, root, jobs, ref, st.typical())
	if err != nil {
		return nil, err
	}
	rep.failed += led.failed
	led.allocsPerKIns = perK(st.mallocs, st.ins)
	led.report(rep)
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "serve.") {
			rep.set(m.name, 0) // no service in a sim-* workload
		}
	}
	rep.set("bench.gen_late_ms_p99", 0)
	return rep, nil
}
