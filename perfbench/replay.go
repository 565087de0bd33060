package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"basevictim/internal/ccache"
	"basevictim/internal/compress"
	"basevictim/internal/cpu"
	"basevictim/internal/dram"
	"basevictim/internal/hierarchy"
	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/trace"
)

// Each replay feeds one recorded stream into one layer and times the
// whole loop, never single calls. A layer below the one replayed is
// either a stub answering from the recording, or real and replayed on
// its own so its time can be subtracted. Every replay also checks that
// the layer reproduced the recording, so a stale recorder cannot
// silently time a different computation.

// replayReps is how often each replay runs; the median time is kept.
const replayReps = 3

// sink keeps replay loops from being optimized away.
var sink uint64

// timeReplay runs prepare (untimed) then the loop it returns (timed),
// replayReps times, and returns the median loop time. prepare builds
// fresh layer state each time, so every repetition replays from empty.
func timeReplay(prepare func() (func() error, error)) (time.Duration, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		loop, err := prepare()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = loop()
		ds = append(ds, float64(time.Since(t0)))
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(ds)), nil
}

// stubMem answers the core with the recorded completion times.
type stubMem struct {
	calls []memCall
	i     int
	bad   bool
}

func (m *stubMem) answer(kind uint8, addr uint64) uint64 {
	if m.i >= len(m.calls) || m.calls[m.i].kind != kind || m.calls[m.i].addr != addr {
		m.bad = true
		return 0
	}
	m.i++
	return m.calls[m.i-1].done
}

func (m *stubMem) Load(_, addr uint64) uint64  { return m.answer(memLoad, addr) }
func (m *stubMem) Store(_, addr uint64) uint64 { return m.answer(memStore, addr) }
func (m *stubMem) Fetch(_, addr uint64) uint64 { return m.answer(memFetch, addr) }

// stubOrg answers the hierarchy with the recorded organization
// responses.
type stubOrg struct {
	calls      []orgCall
	addrs      []uint64
	i, a       int
	res        ccache.Result
	stats      ccache.Stats
	sets, ways int
	bad        bool
}

var noCall orgCall

func (o *stubOrg) take(op uint8, line uint64) *orgCall {
	if o.i >= len(o.calls) || o.calls[o.i].op != op || o.calls[o.i].line != line {
		o.bad = true
		return &noCall
	}
	o.i++
	return &o.calls[o.i-1]
}

func (o *stubOrg) respond(c *orgCall) *ccache.Result {
	o.res.Hit, o.res.Decompress, o.res.DataMoves = c.hit, c.decompress, int(c.moves)
	wb, bi := int(c.wbs), int(c.bis)
	if o.a+wb+bi > len(o.addrs) {
		o.bad = true
		wb, bi = 0, 0
	}
	o.res.Writebacks = o.addrs[o.a : o.a+wb]
	o.res.BackInvals = o.addrs[o.a+wb : o.a+wb+bi]
	o.a += wb + bi
	return &o.res
}

func (o *stubOrg) Name() string { return "replay" }

func (o *stubOrg) Access(line uint64, write bool, _ int) *ccache.Result {
	op := orgAccess
	if write {
		op = orgAccessWrite
	}
	return o.respond(o.take(op, line))
}

func (o *stubOrg) Fill(line uint64, _ int, dirty bool) *ccache.Result {
	op := orgFill
	if dirty {
		op = orgFillDirty
	}
	return o.respond(o.take(op, line))
}

func (o *stubOrg) Contains(uint64) bool { return false }

func (o *stubOrg) ContainsBase(line uint64) bool { return o.take(orgContainsBase, line).hit }

func (o *stubOrg) HintEviction(line uint64, dead bool) {
	op := orgHint
	if dead {
		op = orgHintDead
	}
	o.take(op, line)
}

func (o *stubOrg) Stats() *ccache.Stats { return &o.stats }
func (o *stubOrg) Sets() int            { return o.sets }
func (o *stubOrg) Ways() int            { return o.ways }
func (o *stubOrg) LogicalLines() int    { return 0 }

// stubSizer answers the hierarchy with the recorded compressed sizes.
type stubSizer struct {
	calls []sizeCall
	i     int
	bad   bool
}

func (s *stubSizer) Segments(line uint64, gen uint32) int {
	if s.i >= len(s.calls) || s.calls[s.i].line != line || s.calls[s.i].gen != gen {
		s.bad = true
		return 0
	}
	s.i++
	return int(s.calls[s.i-1].segs)
}

var errDiverged = errors.New("replay diverged from the recording")

// layerTimes is one recording's replayed cost per layer, in host time.
type layerTimes struct {
	gen, feed, cpu, hier, org, sizer, dram, setup time.Duration
	bdi, decode                                   time.Duration
	bdiLines                                      int
}

// replayAll replays every stream of rec into its layer. Each phase gets
// a span under parent.
func replayAll(rec *recording, parent *otrace.Span) (layerTimes, error) {
	var t layerTimes
	phases := []struct {
		name string
		dst  *time.Duration
		run  func(*recording) (time.Duration, error)
	}{
		{"replay.workload.gen", &t.gen, replayGen},
		{"replay.trace.feed", &t.feed, replayFeed},
		{"replay.cpu", &t.cpu, replayCPU},
		{"replay.hierarchy", &t.hier, replayHierarchy},
		{"replay.ccache", &t.org, replayOrg},
		{"replay.workload.sizer", &t.sizer, replaySizer},
		{"replay.dram", &t.dram, replayDRAM},
		{"replay.sim.setup", &t.setup, replaySetup},
		{"replay.compress.bdi", &t.bdi, func(r *recording) (time.Duration, error) {
			d, n, err := replayBDI(r)
			t.bdiLines = n
			return d, err
		}},
		{"replay.trace.decode", &t.decode, replayDecode},
	}
	for _, ph := range phases {
		sp := parent.Child(ph.name, otrace.KindInternal)
		d, err := ph.run(rec)
		sp.Fail(err)
		sp.End()
		if err != nil {
			return t, fmt.Errorf("%s on %s/%s: %w", ph.name, rec.profile.Name, rec.cfg.Org, err)
		}
		*ph.dst = d
	}
	return t, nil
}

// replayGen regenerates the op stream: the workload generator alone.
func replayGen(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		g := rec.profile.Stream()
		n := len(rec.ops)
		return func() error {
			var x uint64
			for i := 0; i < n; i++ {
				op, _ := g.Next()
				x ^= op.Addr
			}
			sink ^= x
			return nil
		}, nil
	})
}

// replayFeed drains the recorded ops through the trace.Stream
// interface: the cost the cpu replay pays to be fed, subtracted from it.
func replayFeed(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		var s trace.Stream = &trace.SliceStream{Ops: rec.ops}
		return func() error {
			var x uint64
			for op, ok := s.Next(); ok; op, ok = s.Next() {
				x ^= op.Addr
			}
			sink ^= x
			return nil
		}, nil
	})
}

// replayCPU runs the core over the recorded ops against a memory system
// answering with the recorded completion times.
func replayCPU(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		m := &stubMem{calls: rec.mem}
		core, err := cpu.New(cpu.DefaultConfig(), m)
		if err != nil {
			return nil, err
		}
		s := &trace.SliceStream{Ops: rec.ops}
		return func() error {
			res := core.Run(s, rec.cfg.Instructions)
			if m.bad || m.i != len(m.calls) || res.Cycles != rec.result.Cycles {
				return fmt.Errorf("%w: core", errDiverged)
			}
			return nil
		}, nil
	})
}

// replayHierarchy drives the hierarchy with the recorded core requests,
// over a stub organization and sizer and the real memory system.
func replayHierarchy(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		cfg := hierConfig(rec.cfg)
		if rec.cfg.Org == sim.OrgUncompressed {
			// The stub is no *ccache.Uncompressed, so the hierarchy would
			// charge it the compressed tag cycle.
			cfg.ExtraTagCycles = 0
		}
		o := &stubOrg{calls: rec.org, addrs: rec.addrs, sets: 1, ways: 1}
		sz := &stubSizer{calls: rec.sizes}
		mem := dram.New(dram.DefaultConfig())
		h, err := hierarchy.New(cfg, o, mem, sz)
		if err != nil {
			return nil, err
		}
		return func() error {
			var x uint64
			for _, c := range rec.mem {
				switch c.kind {
				case memLoad:
					x ^= h.Load(c.now, c.addr)
				case memStore:
					x ^= h.Store(c.now, c.addr)
				default:
					x ^= h.Fetch(c.now, c.addr)
				}
			}
			sink ^= x
			if o.bad || sz.bad || o.i != len(o.calls) || sz.i != len(sz.calls) || mem.Stats != rec.dram {
				return fmt.Errorf("%w: hierarchy", errDiverged)
			}
			return nil
		}, nil
	})
}

// replayOrg replays the recorded calls into a fresh organization.
func replayOrg(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		org, err := newOrg(rec.cfg)
		if err != nil {
			return nil, err
		}
		hint := org.(ccache.EvictionHinter)
		return func() error {
			var x int
			for _, c := range rec.org {
				switch c.op {
				case orgAccess:
					x += int(org.Access(c.line, false, int(c.segs)).DataMoves)
				case orgAccessWrite:
					x += int(org.Access(c.line, true, int(c.segs)).DataMoves)
				case orgFill:
					x += int(org.Fill(c.line, int(c.segs), false).DataMoves)
				case orgFillDirty:
					x += int(org.Fill(c.line, int(c.segs), true).DataMoves)
				case orgContainsBase:
					if org.ContainsBase(c.line) {
						x++
					}
				case orgHint:
					hint.HintEviction(c.line, false)
				case orgHintDead:
					hint.HintEviction(c.line, true)
				}
			}
			sink ^= uint64(x)
			if *org.Stats() != rec.result.LLC {
				return fmt.Errorf("%w: ccache", errDiverged)
			}
			return nil
		}, nil
	})
}

// replaySizer replays the recorded size queries into a fresh value
// model, memo caches starting empty as in the run.
func replaySizer(rec *recording) (time.Duration, error) {
	want := 0
	for _, c := range rec.sizes {
		want += int(c.segs)
	}
	return timeReplay(func() (func() error, error) {
		v := rec.profile.Values()
		return func() error {
			got := 0
			for _, c := range rec.sizes {
				got += v.Segments(c.line, c.gen)
			}
			if got != want {
				return fmt.Errorf("%w: sizer", errDiverged)
			}
			return nil
		}, nil
	})
}

// replayDRAM replays the LLC's memory stream into a fresh memory system
// and checks the row-buffer outcomes against the real run's counters.
func replayDRAM(rec *recording) (time.Duration, error) {
	return timeReplay(func() (func() error, error) {
		mem := dram.New(dram.DefaultConfig())
		return func() error {
			var x uint64
			for _, c := range rec.dramC {
				x ^= mem.Access(c.now, c.line, c.write)
			}
			sink ^= x
			s, w := mem.Stats, rec.dram
			if s.Reads != w.Reads || s.Writes != w.Writes || s.RowHits != w.RowHits ||
				s.RowMisses != w.RowMisses || s.RowConflicts != w.RowConflicts {
				return fmt.Errorf("%w: dram", errDiverged)
			}
			return nil
		}, nil
	})
}

// replaySetup times sim.RunSingle with a one-instruction budget: the
// fixed cost every run pays to build its organization, hierarchy,
// value model and core.
func replaySetup(rec *recording) (time.Duration, error) {
	cfg := rec.cfg
	cfg.Instructions = 1
	return timeReplay(func() (func() error, error) {
		return func() error {
			_, err := sim.RunSingle(rec.profile, cfg)
			return err
		}, nil
	})
}

// bdiSample bounds how many recorded lines the compressor replay sizes.
const bdiSample = 1 << 15

// replayBDI compresses the contents of the lines the sizer was asked
// about (synthesized untimed with Values.FillLine), timing only BDI's
// CompressedSize.
func replayBDI(rec *recording) (time.Duration, int, error) {
	n := min(len(rec.sizes), bdiSample)
	if n == 0 {
		return 0, 0, nil
	}
	v := rec.profile.Values()
	lines := make([]byte, n*compress.LineSize)
	for i := 0; i < n; i++ {
		c := rec.sizes[i]
		v.FillLine(lines[i*compress.LineSize:(i+1)*compress.LineSize], c.line, c.gen)
	}
	bdi := compress.NewBDI()
	d, err := timeReplay(func() (func() error, error) {
		return func() error {
			x := 0
			for i := 0; i < n; i++ {
				x += bdi.CompressedSize(lines[i*compress.LineSize : (i+1)*compress.LineSize])
			}
			sink ^= uint64(x)
			return nil
		}, nil
	})
	return d, n, err
}

// replayDecode encodes the recorded ops as a trace image and times
// trace.BatchReader decoding it.
func replayDecode(rec *recording) (time.Duration, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return 0, err
	}
	for _, op := range rec.ops {
		if err := w.Write(op); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	image := buf.Bytes()
	return timeReplay(func() (func() error, error) {
		return func() error {
			r, err := trace.NewBatchReader(bytes.NewReader(image))
			if err != nil {
				return err
			}
			n := 0
			for {
				ops, err := r.NextBatch()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				n += len(ops)
			}
			if n != len(rec.ops) {
				return fmt.Errorf("%w: decoded %d of %d ops", errDiverged, n, len(rec.ops))
			}
			return nil
		}, nil
	})
}
