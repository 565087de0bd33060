package main

import (
	"context"
	"fmt"

	"basevictim/internal/ccache"
	"basevictim/internal/cpu"
	"basevictim/internal/dram"
	"basevictim/internal/hierarchy"
	"basevictim/internal/policy"
	"basevictim/internal/sim"
	"basevictim/internal/trace"
	"basevictim/internal/workload"
)

// The traced run assembles the simulator from its public parts, the way
// sim.RunSingle does, with a recorder on every interface one layer
// calls the next through. Each recorder forwards the call and keeps the
// arguments and the response, so every layer's input stream can later
// be replayed into that layer alone. checkAssembly proves the assembled
// run reproduces sim.RunSingle exactly.

// Kinds of calls crossing cpu.MemSystem.
const (
	memLoad uint8 = iota
	memStore
	memFetch
)

// memCall is one cpu.MemSystem call and the completion time it returned.
type memCall struct {
	now, addr, done uint64
	kind            uint8
}

// Kinds of calls crossing ccache.Org (and the EvictionHinter the
// hierarchy finds on it).
const (
	orgAccess uint8 = iota
	orgAccessWrite
	orgFill
	orgFillDirty
	orgContainsBase
	orgHint
	orgHintDead
)

// orgCall is one call into the LLC organization and the parts of its
// response the hierarchy reads. The writeback and back-invalidation
// addresses follow in order in recording.addrs.
type orgCall struct {
	line       uint64
	op         uint8
	segs       int8
	hit        bool // Result.Hit, or ContainsBase's answer
	decompress bool
	wbs, bis   uint8
	moves      uint8
}

// dramCall is one access the LLC's misses and writebacks make to
// dram.System. The hierarchy holds a concrete *dram.System, so this
// stream is derived at the organization boundary: every clean Fill is
// preceded by exactly one memory read of that line, and every reported
// writeback is one memory write. Reads carry the time of the core's
// request that caused them; the demand path adds the LLC latency on
// top, which moves bank timing but not row-buffer outcomes, and
// replayDRAM checks those against the real run's counters.
type dramCall struct {
	now, line uint64
	write     bool
}

// sizeCall is one hierarchy.Sizer call and its answer.
type sizeCall struct {
	line uint64
	gen  uint32
	segs int8
}

// recording holds every stream of one traced (trace, org) run.
type recording struct {
	profile workload.Profile
	cfg     sim.Config
	result  sim.Result // the assembled run's result
	dram    dram.Stats // the real memory system's final counters

	ops   []trace.Op
	mem   []memCall
	org   []orgCall
	addrs []uint64
	dramC []dramCall
	sizes []sizeCall
	err   error // a response too large to record compactly
}

type recStream struct {
	g   *workload.Generator
	rec *recording
}

func (s *recStream) Next() (trace.Op, bool) {
	op, ok := s.g.Next()
	s.rec.ops = append(s.rec.ops, op)
	return op, ok
}

type recMem struct {
	h   *hierarchy.Hierarchy
	org *recOrg
	rec *recording
}

func (m *recMem) call(kind uint8, now, addr uint64, f func(uint64, uint64) uint64) uint64 {
	m.org.now = now
	done := f(now, addr)
	m.rec.mem = append(m.rec.mem, memCall{now: now, addr: addr, done: done, kind: kind})
	return done
}

func (m *recMem) Load(now, addr uint64) uint64  { return m.call(memLoad, now, addr, m.h.Load) }
func (m *recMem) Store(now, addr uint64) uint64 { return m.call(memStore, now, addr, m.h.Store) }
func (m *recMem) Fetch(now, addr uint64) uint64 { return m.call(memFetch, now, addr, m.h.Fetch) }

// recOrg wraps the organization. It unwraps to it, so the hierarchy
// resolves the same tag-cycle penalty it would for the bare org.
type recOrg struct {
	ccache.Org
	now uint64 // time of the core request in progress
	rec *recording
}

func (o *recOrg) Unwrap() ccache.Org { return o.Org }

func (o *recOrg) record(line uint64, op uint8, segs int, r *ccache.Result) {
	c := orgCall{line: line, op: op, segs: int8(segs), hit: r.Hit, decompress: r.Decompress}
	if len(r.Writebacks) > 255 || len(r.BackInvals) > 255 || r.DataMoves > 255 {
		o.rec.err = fmt.Errorf("organization response too large to record at line %#x", line)
	}
	c.wbs, c.bis, c.moves = uint8(len(r.Writebacks)), uint8(len(r.BackInvals)), uint8(r.DataMoves)
	o.rec.org = append(o.rec.org, c)
	o.rec.addrs = append(o.rec.addrs, r.Writebacks...)
	o.rec.addrs = append(o.rec.addrs, r.BackInvals...)
	for _, wb := range r.Writebacks {
		o.rec.dramC = append(o.rec.dramC, dramCall{line: wb, write: true})
	}
}

func (o *recOrg) Access(line uint64, write bool, segs int) *ccache.Result {
	r := o.Org.Access(line, write, segs)
	op := orgAccess
	if write {
		op = orgAccessWrite
	}
	o.record(line, op, segs, r)
	return r
}

func (o *recOrg) Fill(line uint64, segs int, dirty bool) *ccache.Result {
	op := orgFillDirty
	if !dirty {
		op = orgFill
		o.rec.dramC = append(o.rec.dramC, dramCall{now: o.now, line: line})
	}
	r := o.Org.Fill(line, segs, dirty)
	o.record(line, op, segs, r)
	return r
}

func (o *recOrg) ContainsBase(line uint64) bool {
	in := o.Org.ContainsBase(line)
	o.rec.org = append(o.rec.org, orgCall{line: line, op: orgContainsBase, hit: in})
	return in
}

func (o *recOrg) HintEviction(line uint64, dead bool) {
	o.Org.(ccache.EvictionHinter).HintEviction(line, dead)
	op := orgHint
	if dead {
		op = orgHintDead
	}
	o.rec.org = append(o.rec.org, orgCall{line: line, op: op})
}

type recSizer struct {
	inner hierarchy.Sizer
	rec   *recording
}

func (s *recSizer) Segments(line uint64, gen uint32) int {
	segs := s.inner.Segments(line, gen)
	s.rec.sizes = append(s.rec.sizes, sizeCall{line: line, gen: gen, segs: int8(segs)})
	return segs
}

// newOrg builds the configured organization as sim does.
func newOrg(cfg sim.Config) (ccache.Org, error) {
	pf, err := policy.ByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	vf, err := policy.VictimByName(cfg.VictimPolicy)
	if err != nil {
		return nil, err
	}
	cc := ccache.Config{SizeBytes: cfg.LLCSizeBytes, Ways: cfg.LLCWays, Policy: pf, Victim: vf, Inclusive: cfg.Inclusive, Seed: 1}
	switch cfg.Org {
	case sim.OrgUncompressed:
		return ccache.NewUncompressed(cc)
	case sim.OrgBaseVictim:
		return ccache.NewBaseVictim(cc)
	}
	return nil, fmt.Errorf("the ledger covers uncompressed and basevictim, not %q", cfg.Org)
}

// hierConfig is the hierarchy configuration sim derives from cfg.
func hierConfig(cfg sim.Config) hierarchy.Config {
	h := hierarchy.DefaultConfig()
	h.EnablePrefetch = cfg.Prefetch
	h.ExtraLLCLatency = cfg.ExtraLLCLatency
	h.ExtraTagCycles = cfg.TagCycles
	h.DecompressCycles = cfg.DecompressCycles
	return h
}

// record runs one (trace, org) simulation through the recorders.
func record(ctx context.Context, p workload.Profile, cfg sim.Config) (*recording, error) {
	rec := &recording{profile: p, cfg: cfg}
	org, err := newOrg(cfg)
	if err != nil {
		return nil, err
	}
	ro := &recOrg{Org: org, rec: rec}
	mem := dram.New(dram.DefaultConfig())
	h, err := hierarchy.New(hierConfig(cfg), ro, mem, &recSizer{inner: p.Values(), rec: rec})
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(cpu.DefaultConfig(), &recMem{h: h, org: ro, rec: rec})
	if err != nil {
		return nil, err
	}
	res, err := core.RunCtx(ctx, &recStream{g: p.Stream(), rec: rec}, cfg.Instructions)
	if err != nil {
		return nil, err
	}
	if rec.err != nil {
		return nil, rec.err
	}
	rec.result = sim.Result{
		Trace:            p.Name,
		Org:              cfg.Org,
		Instructions:     res.Instructions,
		Cycles:           res.Cycles,
		IPC:              res.IPC,
		DemandDRAMReads:  h.Stats.DemandDRAMReads,
		DRAMReads:        mem.Stats.Reads,
		DRAMWrites:       mem.Stats.Writes,
		LLC:              *org.Stats(),
		Energy:           h.EnergyCounters(res.Cycles),
		LLCLogicalLines:  org.LogicalLines(),
		LLCPhysicalLines: org.Sets() * org.Ways(),
	}
	rec.dram = mem.Stats
	return rec, nil
}
