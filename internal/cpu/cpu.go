// Package cpu implements the out-of-order core timing model that
// stands in for the paper's cycle-accurate execution-driven x86
// simulator (Section V: 4 GHz, 4-wide dynamically scheduled
// out-of-order issue, per-core private L1s and L2).
//
// The model is a reorder-buffer window simulator: instructions dispatch
// at the front-end width, complete after their (memory-system-supplied)
// latency, and retire in order. Independent misses inside the window
// overlap naturally, giving realistic memory-level parallelism; loads
// marked dependence-critical stall dispatch until they complete, which
// is how workloads bound their MLP. Cache-compression studies live and
// die by how miss counts translate into stalls, and this window model
// captures exactly that translation.
package cpu

import (
	"context"
	"fmt"

	"basevictim/internal/arena"
	"basevictim/internal/trace"
)

// cancelPollEvery is the amortized cancellation poll interval in
// instructions. Between polls a run is uninterruptible, so the value
// trades per-instruction overhead (none between polls) against
// cancellation latency: at the simulator's ~3 MIPS, 4096 instructions
// is under two milliseconds of wall clock.
const cancelPollEvery = 4096

// MemSystem is the memory hierarchy seen by the core. Each call
// performs the access at time now (CPU cycles) and returns its
// completion time.
type MemSystem interface {
	Load(now uint64, addr uint64) uint64
	Store(now uint64, addr uint64) uint64
	Fetch(now uint64, addr uint64) uint64
}

// Config sets the core parameters.
type Config struct {
	Width   int // dispatch/retire width (paper: 4)
	ROB     int // reorder buffer entries
	ExecLat uint64
	// FetchEvery issues one instruction-cache fetch per this many
	// instructions (one line of ~16 4-byte instructions).
	FetchEvery int
	// CodeFootprint is the instruction working set in bytes; fetches
	// walk it cyclically.
	CodeFootprint uint64
	// CodeBase offsets instruction addresses away from data.
	CodeBase uint64
}

// DefaultConfig is the paper's core.
func DefaultConfig() Config {
	return Config{
		Width:         4,
		ROB:           224,
		ExecLat:       1,
		FetchEvery:    16,
		CodeFootprint: 64 << 10,
		CodeBase:      1 << 40,
	}
}

// Result summarizes a run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
}

// Core runs traces against a memory system.
type Core struct {
	cfg Config
	mem MemSystem

	rob        []uint64 // completion times, ring buffer
	robHead    int
	robLen     int
	lastRetire uint64
	hooks      coreHooks // obs instrumentation; zero value = disabled
}

// New builds a core.
func New(cfg Config, mem MemSystem) (*Core, error) {
	return NewIn(nil, cfg, mem)
}

// NewIn is New with the reorder buffer carved from the arena (nil
// falls back to the heap).
func NewIn(a *arena.Arena, cfg Config, mem MemSystem) (*Core, error) {
	if cfg.Width <= 0 || cfg.ROB <= 0 || mem == nil {
		return nil, fmt.Errorf("cpu: bad config %+v", cfg)
	}
	if cfg.FetchEvery <= 0 {
		cfg.FetchEvery = 16
	}
	if cfg.CodeFootprint < 64 {
		cfg.CodeFootprint = 64
	}
	return &Core{cfg: cfg, mem: mem, rob: arena.Make[uint64](a, cfg.ROB)}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, mem MemSystem) *Core {
	return MustNewIn(nil, cfg, mem)
}

// MustNewIn is NewIn but panics on error.
func MustNewIn(a *arena.Arena, cfg Config, mem MemSystem) *Core {
	c, err := NewIn(a, cfg, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// retireOldest pops the oldest ROB entry, honoring in-order
// retirement: an entry cannot retire before its predecessor.
func (c *Core) retireOldest() uint64 {
	done := c.rob[c.robHead]
	if done < c.lastRetire {
		done = c.lastRetire
	}
	c.lastRetire = done
	if c.robHead++; c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robLen--
	return done
}

func (c *Core) push(done uint64) {
	i := c.robHead + c.robLen
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	c.rob[i] = done
	c.robLen++
}

// Run executes up to maxIns operations from the stream and returns the
// timing result. Run can be called repeatedly; time continues from the
// previous call (used by multi-program simulations that interleave
// cores).
func (c *Core) Run(s trace.Stream, maxIns uint64) Result {
	res, _ := c.RunCtx(context.Background(), s, maxIns)
	return res
}

// RunCtx is Run with cooperative cancellation: every cancelPollEvery
// instructions it polls ctx and, once ctx is done, stops dispatching,
// drains the ROB and returns the partial result alongside ctx's error
// (context.Canceled or context.DeadlineExceeded). A non-cancellable
// context (Done() == nil, e.g. context.Background) skips the poll
// entirely, so the hot loop pays nothing when cancellation is unused.
func (c *Core) RunCtx(ctx context.Context, s trace.Stream, maxIns uint64) (Result, error) {
	var (
		ins    uint64
		cycle  uint64 = c.lastRetire
		slots  int
		pc     uint64
		poll   = ctx.Done() != nil
		ctxErr error
		// fetchTick tracks ins mod FetchEvery incrementally so the hot
		// loop avoids a variable-divisor modulo per instruction.
		fetchTick int
	)
	for ins < maxIns {
		if poll && ins%cancelPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
		}
		if c.hooks.sample && ins%samplePeriod == 0 {
			c.sampleWindow(ins, cycle)
		}
		op, ok := s.Next()
		if !ok {
			break
		}
		ins++

		// Front end: width instructions dispatch per cycle, and the
		// instruction stream itself is fetched through the L1I.
		if slots == c.cfg.Width {
			slots = 0
			cycle++
		}
		slots++
		if fetchTick++; fetchTick == c.cfg.FetchEvery {
			fetchTick = 0
		}
		if fetchTick == 1 {
			addr := c.cfg.CodeBase + pc%c.cfg.CodeFootprint
			pc += 64
			fetchDone := c.mem.Fetch(cycle, addr)
			// L1I hit latency is pipeline-hidden; anything slower
			// stalls the front end.
			if hidden := cycle + 3; fetchDone > hidden {
				c.hooks.stallFetch.Add(fetchDone - hidden)
				cycle = fetchDone - 3
			}
		}

		// Backpressure: a full ROB stalls dispatch until the oldest
		// instruction retires.
		if c.robLen == len(c.rob) {
			if done := c.retireOldest(); done > cycle {
				c.hooks.stallROB.Add(done - cycle)
				cycle = done
				slots = 1
			}
		}

		var done uint64
		switch op.Kind {
		case trace.Load:
			done = c.mem.Load(cycle, op.Addr)
			if op.Dep && done > cycle {
				// Dependence-critical load: consumers cannot even
				// dispatch until the value arrives.
				c.hooks.stallLoad.Add(done - cycle)
				cycle = done
				slots = 1
			}
		case trace.Store:
			// Stores complete into the store buffer; the hierarchy
			// handles the data movement.
			c.mem.Store(cycle, op.Addr)
			done = cycle + c.cfg.ExecLat
		default:
			done = cycle + c.cfg.ExecLat
		}
		c.push(done)
	}

	// Drain the ROB.
	for c.robLen > 0 {
		c.retireOldest()
	}
	end := c.lastRetire
	if cycle > end {
		end = cycle
	}
	c.lastRetire = end
	res := Result{Instructions: ins, Cycles: end}
	if end > 0 {
		res.IPC = float64(ins) / float64(end)
	}
	return res, ctxErr
}
