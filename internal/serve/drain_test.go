package serve

// Graceful-drain durability: a drained service finishes the work it
// accepted, persists every finished run as a complete CRC-valid
// checkpoint record, and a restarted service answers the same
// questions from disk byte-for-byte without re-simulating. A FORCED
// drain (deadline expired) may abandon runs, but can still leave only
// whole records behind — the atomicio rename is the commit point.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"basevictim/internal/figures"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// TestDrainPersistsThenServesFromDisk is the end-to-end durability
// story: accept work, drain mid-flight, verify the directory, restart,
// and prove the restarted service never simulates.
func TestDrainPersistsThenServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	traces := []string{"mcf.p1", "lbm.p2", "milc.p1", "gcc.p1"}

	// Phase 1: a server whose runner gates real simulations, so two runs
	// are in flight and two are queued when the drain begins.
	g := newGatedRunner()
	realGated := func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
		g.started <- p.Name
		select {
		case <-g.release:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return sim.RunSingleCtx(ctx, p, cfg)
	}
	s1 := startServer(t, Config{Workers: 2, CacheDir: dir, Runner: realGated})
	base := "http://" + s1.Addr()

	bodies := make([][]byte, len(traces))
	var wg sync.WaitGroup
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, tr string) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/run",
				map[string]any{"trace": tr, "instructions": 20_000})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d (%s)", tr, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i, tr)
	}
	waitStarted(t, g, 2) // two on workers...
	deadline := time.Now().Add(5 * time.Second)
	for s1.q.depth() < 2 { // ...and wait until the other two are queued
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 2", s1.q.depth())
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s1.Drain(ctx)
	}()
	for !s1.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	// Mid-drain observability: the gauge flips to 1 and a new request is
	// shed with a counted 503 before touching queue or cache.
	if g := s1.m.snapshot().Gauges["serve.draining"]; g != 1 {
		t.Fatalf("serve.draining gauge = %d mid-drain, want 1", g)
	}
	shedResp, shedBody := postJSON(t, base+"/v1/run",
		map[string]any{"trace": "mcf.p2", "instructions": 1000})
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: status %d (%s), want 503", shedResp.StatusCode, shedBody)
	}
	if n := counterValue(t, s1, "serve.shed_draining"); n != 1 {
		t.Fatalf("serve.shed_draining = %d after a mid-drain request, want 1", n)
	}
	close(g.release) // let all four accepted runs finish
	if err := <-drainDone; err != nil {
		t.Fatalf("graceful drain reported %v", err)
	}
	wg.Wait()

	// Every accepted run was answered AND persisted, and every record in
	// the directory is complete and CRC-valid.
	n, err := figures.VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir after drain: %v", err)
	}
	if n != len(traces) {
		t.Fatalf("%d checkpoint records after drain, want %d", n, len(traces))
	}

	// Phase 2: a restarted service over the same directory, with a
	// runner that fails the test if it is ever reached.
	poison := func(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("restarted service re-simulated %s", p.Name)
	}
	s2 := startServer(t, Config{Workers: 2, CacheDir: dir, Runner: poison})
	base2 := "http://" + s2.Addr()
	for i, tr := range traces {
		resp, body := postJSON(t, base2+"/v1/run",
			map[string]any{"trace": tr, "instructions": 20_000})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after restart: status %d (%s)", tr, resp.StatusCode, body)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("%s after restart diverges:\ngot  %s\nwant %s", tr, body, bodies[i])
		}
	}
	if n := counterValue(t, s2, "serve.runs_executed"); n != 0 {
		t.Fatalf("restarted service executed %d runs, want 0 (all from disk)", n)
	}
	loaded, discarded, _ := s2.store.Stats()
	if loaded != len(traces) || discarded != 0 {
		t.Fatalf("restart store stats: loaded=%d discarded=%d, want %d/0", loaded, discarded, len(traces))
	}
}

// TestForcedDrainAbandonsButNeverCorrupts: when the drain deadline
// expires, in-flight runs are cancelled — their keys are simply absent
// from the directory, never half-written — and Drain reports the
// forced stop so the CLI can exit with the interrupted code.
func TestForcedDrainAbandonsButNeverCorrupts(t *testing.T) {
	dir := t.TempDir()
	g := newGatedRunner() // never released: the run can only end by cancellation
	s := startServer(t, Config{Workers: 1, CacheDir: dir, Runner: g.run})
	base := "http://" + s.Addr()

	errc := make(chan error, 1)
	go func() {
		// No postJSON here: its t.Fatalf would end this goroutine
		// without a send when the forced stop drops the connection. A
		// dropped connection, like an error status, is not a success,
		// and not-a-success is all this test asserts.
		resp, err := http.Post(base+"/v1/run", "application/json",
			strings.NewReader(`{"trace":"mcf.p1","instructions":1000}`))
		if err != nil {
			errc <- nil
			return
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			errc <- fmt.Errorf("cancelled run reported success")
			return
		}
		errc <- nil
	}()
	waitStarted(t, g, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("forced drain reported a clean stop")
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	n, err := figures.VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir after forced drain: %v", err)
	}
	if n != 0 {
		t.Fatalf("%d records from an abandoned run, want 0", n)
	}
}

// TestDrainIdempotent: Drain twice (and Close after Drain) is safe and
// returns the first outcome.
func TestDrainIdempotent(t *testing.T) {
	s := startServer(t, Config{InProcess: true})
	ctx := context.Background()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	s.Close()
}
