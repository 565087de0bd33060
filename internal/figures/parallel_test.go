package figures

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"basevictim/internal/check"
	"basevictim/internal/obs"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// parallelSession builds a small-but-real session for engine tests.
func parallelSession(workers int) *Session {
	s := NewSession(30_000)
	s.MaxTraces = 2
	s.Workers = workers
	return s
}

// TestParallelDeterminism is the engine's core contract: a parallel
// session renders byte-identical tables to the historical serial path,
// across line graphs, grouped figures and the sweep experiments.
func TestParallelDeterminism(t *testing.T) {
	ids := []string{"fig6", "fig8", "fig9", "fig11", "victimpolicy"}
	render := func(workers int) string {
		s := parallelSession(workers)
		var out string
		for _, want := range ids {
			for _, e := range Experiments() {
				if e.ID != want {
					continue
				}
				tab, err := e.Run(s, context.Background())
				if err != nil {
					t.Fatalf("workers=%d %s: %v", workers, want, err)
				}
				out += tab.Format()
			}
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("parallel tables differ from serial:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
}

// countingRunFn swaps the session's simulator for a cheap fake that
// counts invocations per (trace, config) key.
func countingRunFn(s *Session) (counts *sync.Map) {
	counts = &sync.Map{}
	s.runFn = func(_ context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
		key := runKey{trace: p.Name, cfg: cfg}
		n, _ := counts.LoadOrStore(key, new(int))
		countMu.Lock()
		*n.(*int)++
		countMu.Unlock()
		return sim.Result{Trace: p.Name, Org: cfg.Org, IPC: 1, Instructions: cfg.Instructions, Cycles: 1}, nil
	}
	return counts
}

var countMu sync.Mutex // serializes the per-key counters in countingRunFn

// TestSingleflightSharedBaseline runs two figures that share every
// trace's 2 MB uncompressed baseline concurrently and asserts no
// (trace, config) pair is ever simulated twice — the racing experiment
// waits on the in-flight entry instead of duplicating the run.
func TestSingleflightSharedBaseline(t *testing.T) {
	s := parallelSession(4)
	counts := countingRunFn(s)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	runs := []func(context.Context) (Table, error){s.Fig6, s.Fig8}
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = run(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("experiment %d: %v", i, err)
		}
	}

	distinct, base := 0, 0
	counts.Range(func(k, v any) bool {
		distinct++
		key := k.(runKey)
		if key.cfg.Org == sim.OrgUncompressed {
			base++
		}
		if got := *v.(*int); got != 1 {
			t.Errorf("%s on %s simulated %d times, want exactly 1", key.trace, key.cfg.Org, got)
		}
		return true
	})
	if base == 0 || distinct <= base {
		t.Fatalf("expected shared baselines plus compressed runs, got %d keys (%d baselines)", distinct, base)
	}
}

// TestRunKeyIncludesVerificationOptions locks in the satellite fix: two
// configs that differ only in their verification fields must occupy
// separate cache slots (the old string key dropped them, so a checked
// run could poison the unchecked cache and vice versa).
func TestRunKeyIncludesVerificationOptions(t *testing.T) {
	s := parallelSession(1)
	counts := countingRunFn(s)
	p := s.all[0]

	variants := []sim.Config{
		bvDefault(),
		func() sim.Config { c := bvDefault(); c.Check = "cheap"; return c }(),
		func() sim.Config { c := bvDefault(); c.Check = "cheap"; c.CheckFullBudget = 5000; return c }(),
		func() sim.Config { c := bvDefault(); c.Inject = "tag@1000"; return c }(),
		func() sim.Config { c := bvDefault(); c.Inject = "tag@1000"; c.Seed = 7; return c }(),
	}
	for _, cfg := range variants {
		for rep := 0; rep < 2; rep++ { // repeats must hit the cache
			if _, err := s.run(context.Background(), p, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	distinct := 0
	counts.Range(func(k, v any) bool {
		distinct++
		if got := *v.(*int); got != 1 {
			t.Errorf("key %+v simulated %d times, want 1", k, got)
		}
		return true
	})
	if distinct != len(variants) {
		t.Fatalf("%d distinct cache keys, want %d (verification options must be part of the key)", distinct, len(variants))
	}
}

// TestParallelViolationPropagates injects a tag fault under the cheap
// checker and runs a whole figure with four workers: the batch must
// cancel and the error must still unwrap to a *check.Violation with its
// forensics, not decay into a generic error inside the pool.
func TestParallelViolationPropagates(t *testing.T) {
	s := parallelSession(4)
	s.Check = "cheap"
	s.Inject = "tag@2000"

	_, err := s.Fig6(context.Background())
	if err == nil {
		t.Fatal("injected tag fault was not detected")
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error lost its violation type through the worker pool: %v", err)
	}
	if v.Kind == "" || v.OpIndex == 0 {
		t.Fatalf("violation forensics missing: %+v", v)
	}
}

// TestRunJobsStopsAfterFailure checks the cancel-on-first-violation
// behavior: once a job fails, unstarted jobs never run, and the error
// reported is the lowest-indexed failure.
func TestRunJobsStopsAfterFailure(t *testing.T) {
	s := parallelSession(2)
	const n = 64
	var (
		ran  sync.Map
		stop atomic.Bool
	)
	failAt := 5
	// A batch that never stops lets its jobs through after 10 s and
	// fails below.
	giveUp := time.Now().Add(10 * time.Second)
	err := s.runJobsUntil(context.Background(), n, func(i int) error {
		// Every later job waits until job 5's failure has stopped the
		// batch, so the other worker cannot drain the trivial jobs
		// while job 5 is still on its way to the stop.
		for i > failAt && !stop.Load() && time.Now().Before(giveUp) {
			time.Sleep(time.Millisecond)
		}
		ran.Store(i, true)
		if i == failAt {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	}, &stop)
	if err == nil || err.Error() != "job 5 failed" {
		t.Fatalf("err = %v, want job 5 failure", err)
	}
	total := 0
	ran.Range(func(_, _ any) bool { total++; return true })
	if total == n {
		t.Fatal("every job ran despite an early failure; pool did not cancel")
	}
}

// TestProgressSerialized hammers the progress callback from a wide
// batch and asserts the session's serialization contract: calls never
// overlap, even though workers complete concurrently.
func TestProgressSerialized(t *testing.T) {
	s := parallelSession(8)
	countingRunFn(s)
	inCallback := false
	lines := 0
	s.Progress = func(obs.Progress) {
		if inCallback {
			t.Error("Progress reentered concurrently")
		}
		inCallback = true
		lines++
		inCallback = false
	}
	reqs := make([]runReq, 0, 32)
	for i := 0; i < 32; i++ {
		cfg := bvDefault()
		cfg.ExtraLLCLatency = uint64(i) // force 32 distinct keys
		reqs = append(reqs, runReq{s.all[i%4], cfg})
	}
	if _, err := s.runAll(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if lines != 32 {
		t.Fatalf("Progress saw %d lines, want 32", lines)
	}
}
