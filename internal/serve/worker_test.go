package serve

// The worker lifecycle over real worker processes (the test binary
// re-exec'd, see TestMain): a worker serves jobs in sequence, a failed
// job retires its process, a worker that dies idle costs no attempt,
// and Drain leaves no process behind.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"basevictim/internal/sim"
)

// runFresh posts one /v1/run for a key no earlier request used and
// checks the answer byte for byte against an in-process simulation.
func runFresh(t *testing.T, s *Server, trace string, ins uint64) {
	t.Helper()
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
		map[string]any{"trace": trace, "instructions": ins})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/%d: status %d (%s)", trace, ins, resp.StatusCode, body)
	}
	got, _ := json.Marshal(decodeRun(t, body))
	want, _ := json.Marshal(expectResult(t, trace, ins))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%d diverges from an in-process run:\ngot  %s\nwant %s", trace, ins, got, want)
	}
}

func idleWorkers(s *Server) (idle, live int) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return len(s.pool.idle), s.pool.live
}

// TestWorkerServesRunsInSequence: five fresh runs on one worker slot
// start one process, and every answer matches a clean simulation.
func TestWorkerServesRunsInSequence(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1})
	traces := []string{"mcf.p1", "lbm.p2", "wrf.p1", "mcf.p1", "soplex.p1"}
	for i, tr := range traces {
		runFresh(t, s, tr, uint64(20_000+i))
	}
	if n := counterValue(t, s, "serve.worker_starts"); n != 1 {
		t.Errorf("serve.worker_starts = %d after %d sequential runs, want 1", n, len(traces))
	}
	if n := counterValue(t, s, "serve.runs_executed"); n != uint64(len(traces)) {
		t.Errorf("serve.runs_executed = %d, want %d", n, len(traces))
	}
	if idle, live := idleWorkers(s); idle != 1 || live != 1 {
		t.Errorf("idle=%d live=%d after the runs, want the one worker parked", idle, live)
	}
}

// TestStructuredFailureRetiresWorker: a checker violation ends its
// worker, so the next run starts a new process, and still answers
// correctly.
func TestStructuredFailureRetiresWorker(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1})
	runFresh(t, s, "mcf.p1", 20_000)
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run", map[string]any{
		"trace":        "mcf.p1",
		"instructions": 50_000,
		"config":       map[string]any{"Check": "full", "Inject": "tag@1000"},
	})
	var eb errorBody
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &eb) != nil || eb.Kind != kindViolation {
		t.Fatalf("status %d (%s), want 500 %s", resp.StatusCode, body, kindViolation)
	}
	if n := counterValue(t, s, "serve.worker_starts"); n != 1 {
		t.Fatalf("serve.worker_starts = %d, want the violation to run on the parked worker", n)
	}
	if idle, live := idleWorkers(s); idle != 0 || live != 0 {
		t.Fatalf("idle=%d live=%d after a violation, want its worker retired", idle, live)
	}
	runFresh(t, s, "lbm.p2", 20_000)
	if n := counterValue(t, s, "serve.worker_starts"); n != 2 {
		t.Errorf("serve.worker_starts = %d, want a new process after the violation", n)
	}
}

// TestIdleWorkerDeathCostsNoAttempt: a parked worker killed from
// outside is replaced when the next run needs it, without spending
// one of that run's attempts.
func TestIdleWorkerDeathCostsNoAttempt(t *testing.T) {
	s := chaosServer(t, Config{Workers: 1, MaxAttempts: 1})
	runFresh(t, s, "mcf.p1", 20_000)
	s.pool.mu.Lock()
	if len(s.pool.idle) != 1 {
		s.pool.mu.Unlock()
		t.Fatalf("%d idle workers, want 1", len(s.pool.idle))
	}
	if err := s.pool.idle[0].cmd.Process.Kill(); err != nil {
		s.pool.mu.Unlock()
		t.Fatal(err)
	}
	s.pool.mu.Unlock()
	// One attempt is all the run gets: had the dead worker taken it, the
	// key would be quarantined.
	runFresh(t, s, "lbm.p2", 20_000)
	if n := counterValue(t, s, "serve.worker_restarts"); n != 0 {
		t.Errorf("serve.worker_restarts = %d, want 0: no job died", n)
	}
	if n := counterValue(t, s, "serve.worker_starts"); n != 2 {
		t.Errorf("serve.worker_starts = %d, want 2", n)
	}
	if h := s.m.snapshot().Histograms["serve.run_attempts"]; h.Count != 2 || h.Sum != 2 {
		t.Errorf("serve.run_attempts count=%d sum=%d, want two first-attempt successes", h.Count, h.Sum)
	}
}

// TestDrainReapsWorkers: after Drain no worker is parked and every
// started process has been waited for.
func TestDrainReapsWorkers(t *testing.T) {
	s := chaosServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for i, tr := range []string{"mcf.p1", "lbm.p2", "wrf.p1", "milc.p1"} {
		wg.Add(1)
		go func(i int, tr string) {
			defer wg.Done()
			resp, body := postJSON(t, "http://"+s.Addr()+"/v1/run",
				map[string]any{"trace": tr, "instructions": 40_000 + i})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d (%s)", tr, resp.StatusCode, body)
			}
		}(i, tr)
	}
	wg.Wait()
	starts := counterValue(t, s, "serve.worker_starts")
	if idle, live := idleWorkers(s); idle == 0 || idle != live || uint64(live) != starts {
		t.Fatalf("idle=%d live=%d starts=%d before drain, want every started worker parked", idle, live, starts)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if idle, live := idleWorkers(s); idle != 0 || live != 0 {
		t.Fatalf("idle=%d live=%d after drain, want every worker reaped", idle, live)
	}
}

// TestWorkerMainJobSequence: WorkerMain serves envelopes until EOF,
// exits 1 on a garbled one, and takes no job after a failed one.
func TestWorkerMainJobSequence(t *testing.T) {
	envelope := func(ins uint64, inject string) string {
		cfg := sim.Default()
		cfg.Instructions = ins
		if inject != "" {
			cfg.Check, cfg.Inject = "full", inject
		}
		b, err := json.Marshal(jobEnvelope{Trace: "mcf.p1", Config: cfg, HeartbeatMS: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	for _, tc := range []struct {
		name     string
		in       string
		code     int
		results  int
		failures int
	}{
		{"two jobs then EOF", envelope(2000, "") + envelope(2001, ""), 0, 2, 0},
		{"job then garbage", envelope(2000, "") + "not json\n", 1, 1, 0},
		{"no job after a failure", envelope(50_000, "tag@1000") + envelope(2000, ""), 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := WorkerMain(context.Background(), strings.NewReader(tc.in), &out, &errOut)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, errOut.String())
			}
			results, failures := 0, 0
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				var ln workerLine
				if err := json.Unmarshal([]byte(line), &ln); err != nil {
					t.Fatalf("undecodable line %q: %v", line, err)
				}
				switch {
				case ln.Result != nil:
					results++
				case ln.Error != "":
					failures++
				}
			}
			if results != tc.results || failures != tc.failures {
				t.Fatalf("%d result and %d error lines, want %d and %d", results, failures, tc.results, tc.failures)
			}
		})
	}
}

// TestStderrTailBounded: a worker's kept stderr is bounded, and a
// job's crash note holds only what was written since the job began.
func TestStderrTailBounded(t *testing.T) {
	var tail stderrTail
	tail.Write([]byte("earlier job\n")) //nolint:errcheck // never fails
	mark := tail.mark()
	tail.Write([]byte("this job\n")) //nolint:errcheck // never fails
	if got := tail.since(mark); got != "this job\n" {
		t.Fatalf("since(mark) = %q, want only this job's output", got)
	}
	big := bytes.Repeat([]byte("x"), 3*stderrKeep)
	tail.Write(big) //nolint:errcheck // never fails
	if n := len(tail.since(0)); n != stderrKeep {
		t.Fatalf("kept %d bytes, want %d", n, stderrKeep)
	}
}
