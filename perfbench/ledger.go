package main

import (
	"context"
	"fmt"
	"math"
	"time"

	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
)

// reconcileTolerance is how far the replayed layer costs may fall from
// the untraced run's ns per instruction, as a share of it. The replays
// run each layer alone, with warm host caches and no neighbour evicting
// its data, so they add up to somewhat less than the whole.
const reconcileTolerance = 0.25

// orgLedger sums one organization's replayed layer costs (ns) and
// stream sizes over the recorded simulations.
type orgLedger struct {
	ins                                              uint64
	untraced, recordWall                             float64
	gen, cpu, hier, org, sizer, dram, setup          float64
	memCalls, orgOps, sizerCalls, dramAcc, decodeOps uint64
	bdi, decode                                      float64
	bdiLines                                         uint64
	setupsMS                                         []float64
}

// layers is the sum of the disjoint layer costs, in ns.
func (l *orgLedger) layers() float64 {
	return l.gen + l.cpu + l.hier + l.org + l.sizer + l.dram + l.setup
}

func (l *orgLedger) add(rec *recording, t layerTimes, untraced, wall time.Duration) {
	l.ins += rec.result.Instructions
	l.untraced += float64(untraced)
	l.recordWall += float64(wall)
	l.gen += float64(t.gen)
	l.cpu += float64(t.cpu - t.feed)
	l.hier += float64(t.hier - t.dram)
	l.org += float64(t.org)
	l.sizer += float64(t.sizer)
	l.dram += float64(t.dram)
	l.setup += float64(t.setup)
	l.memCalls += uint64(len(rec.mem))
	l.orgOps += uint64(len(rec.org))
	l.sizerCalls += uint64(len(rec.sizes))
	l.dramAcc += uint64(len(rec.dramC))
	l.bdi += float64(t.bdi)
	l.bdiLines += uint64(t.bdiLines)
	l.decode += float64(t.decode)
	l.decodeOps += uint64(len(rec.ops))
	l.setupsMS = append(l.setupsMS, ms(t.setup))
}

// ledger is a workload's per-layer account.
type ledger struct {
	byOrg         map[sim.OrgKind]*orgLedger
	all           orgLedger // both organizations
	failed        int
	mismatches    []string
	allocsPerKIns float64
}

// traceLedger records every single-thread job, replays its streams
// layer by layer, and sums the costs per organization. untraced holds
// each job's typical untraced duration (ns), which the layers must add
// up to. The mix is not recorded: its four cores share one LLC through
// sim.RunMix's scheduler, which has no interface to record at.
func traceLedger(ctx context.Context, root *otrace.Span, jobs []simJob, ref []simOutcome, untraced []float64) (*ledger, error) {
	led := &ledger{byOrg: map[sim.OrgKind]*orgLedger{}}
	for _, org := range orgs {
		led.byOrg[org] = &orgLedger{}
	}
	for i, j := range jobs {
		if j.single == nil || untraced[i] == 0 {
			continue
		}
		sp := root.Child("bench.simulation", otrace.KindInternal)
		sp.SetAttr("job", j.label())
		t0 := time.Now()
		rec, err := record(ctx, *j.single, j.cfg)
		wall := time.Since(t0)
		if err != nil {
			sp.Fail(err)
			sp.End()
			return nil, fmt.Errorf("recording %s: %w", j.label(), err)
		}
		if canonSingle(rec.result) != ref[i].canon {
			led.failed++
			led.mismatches = append(led.mismatches, j.label()+": the recorded assembly differs from sim.RunSingle")
			sp.Fail(fmt.Errorf("assembly mismatch"))
			sp.End()
			continue
		}
		t, err := replayAll(rec, sp)
		sp.Fail(err)
		sp.End()
		if err != nil {
			return nil, err
		}
		u := time.Duration(untraced[i])
		led.byOrg[j.cfg.Org].add(rec, t, u, wall)
		led.all.add(rec, t, u, wall)
	}
	return led, nil
}

// report prints the reconciliation and sets the per-layer metrics the
// simulator's layers own.
func (led *ledger) report(rep *report) {
	for _, m := range led.mismatches {
		rep.infof("failed: %s", m)
	}
	for _, org := range orgs {
		l := led.byOrg[org]
		if l.ins == 0 {
			continue
		}
		per := func(ns float64) float64 { return ns / float64(l.ins) }
		u := per(l.untraced)
		rest := u - per(l.layers())
		verdict := "within"
		if math.Abs(rest) > reconcileTolerance*u {
			verdict = "OUTSIDE"
		}
		rep.infof("reconcile %s: untraced %.1f ns/ins = workload.gen %.1f + cpu %.1f + hierarchy %.1f + ccache %.1f + workload.sizer %.1f + dram %.1f + sim.setup %.1f + unattributed %.1f (%.0f%%, %s ±%.0f%%)",
			org, u, per(l.gen), per(l.cpu), per(l.hier), per(l.org), per(l.sizer), per(l.dram), per(l.setup),
			rest, 100*ratio(rest, u), verdict, 100*reconcileTolerance)
		rep.set("ccache.ns_per_op."+string(org), ratio(l.org, float64(l.orgOps)))
	}
	t := &led.all
	kins := func(n uint64) float64 { return perK(n, t.ins) }
	rep.set("workload.gen_ns_per_op", ratio(t.gen, float64(t.ins)))
	rep.set("workload.sizer_ns_per_call", ratio(t.sizer, float64(t.sizerCalls)))
	rep.set("workload.sizer_calls_per_kins", kins(t.sizerCalls))
	rep.set("compress.bdi_ns_per_line", ratio(t.bdi, float64(t.bdiLines)))
	rep.set("cpu.self_ns_per_ins", ratio(t.cpu, float64(t.ins)))
	rep.set("cpu.mem_calls_per_kins", kins(t.memCalls))
	rep.set("hierarchy.self_ns_per_call", ratio(t.hier, float64(t.memCalls)))
	rep.set("hierarchy.calls_per_kins", kins(t.memCalls))
	rep.set("ccache.ops_per_kins", kins(t.orgOps))
	rep.set("dram.ns_per_access", ratio(t.dram, float64(t.dramAcc)))
	rep.set("dram.accesses_per_kins", kins(t.dramAcc))
	rep.set("sim.setup_ms", median(t.setupsMS))
	rep.set("sim.allocs_per_kins", led.allocsPerKIns)
	rep.set("trace.decode_ns_per_op", ratio(t.decode, float64(t.decodeOps)))
	rep.set("bench.trace_overhead_ratio", ratio(t.recordWall, t.untraced))
	rep.set("bench.ccache_dram_share", ratio(t.org+t.dram, t.untraced))
	rep.set("unattributed_ns_per_ins", ratio(t.untraced-t.layers(), float64(t.ins)))
}
