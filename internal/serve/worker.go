package serve

// The worker side of the supervisor/worker protocol. bvsimd re-execs
// its own binary with BVSIMD_WORKER=1 in the environment; the child
// calls WorkerMain, which serves jobs in sequence until stdin ends:
//
//  1. reads one jobEnvelope (JSON) line from stdin,
//  2. emits an immediate first heartbeat line, then one every
//     HeartbeatMS while the simulation runs,
//  3. emits exactly one terminal line — {"result": ...} or
//     {"error": ..., "kind": ...}.
//
// Only a job that ended in a result line may be followed by another:
// after an error line (or a stall) the worker exits, so a process
// whose run failed never serves another key. Stdin EOF between jobs
// is the clean shutdown, exit 0.
//
// Everything on stdout is newline-delimited JSON; stderr is free-form
// diagnostics that the supervisor attaches to crash errors. A worker
// that dies without a terminal line (crash, OOM kill, chaos SIGKILL)
// is detected by the supervisor as EOF-without-result; a worker that
// stops heartbeating (livelock, stall) is killed by the hung-run
// watchdog. Exit codes are deliberately boring — the protocol carries
// the real outcome, so a structured failure (checker violation,
// contained panic) still exits 0.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"basevictim/internal/check"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// workerEnvVar marks a process as a bvsimd worker. cmd/bvsimd checks
// it first thing in main and diverts into WorkerMain.
const workerEnvVar = "BVSIMD_WORKER"

// jobEnvelope is one job a worker process runs.
type jobEnvelope struct {
	Trace       string     `json:"trace"`
	Config      sim.Config `json:"config"`
	HeartbeatMS int        `json:"heartbeat_ms"`
	// Stall is chaos injection: heartbeat once, then hang without
	// output until killed, simulating a livelocked run. The supervisor
	// sets it from the chaos spec; it exists in the envelope (rather
	// than as worker-side clock logic) so the fault is exact and
	// deterministic.
	Stall bool `json:"stall,omitempty"`
}

// workerLine is one newline-delimited JSON message from the worker.
// Exactly one field group is set: HB for heartbeats, Result for
// success, Error+Kind for structured failure.
type workerLine struct {
	HB     bool        `json:"hb,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
	Kind   string      `json:"kind,omitempty"`
}

// Failure kinds a worker can report. Every kind is terminal (the
// supervisor does not retry it): these failures are deterministic
// properties of the (trace, config) pair, so a retry would fail
// identically and waste a worker slot.
const (
	kindViolation = "violation" // check.Violation: simulated hardware broke an invariant
	kindPanic     = "panic"     // contained *sim.RunPanicError
	kindError     = "error"     // any other simulation error (bad trace, bad config)
)

// lineWriter serializes JSON lines onto one stream: the heartbeat
// goroutine and the simulation goroutine must never interleave bytes.
type lineWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *lineWriter) send(ln workerLine) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc.Encode(ln) //nolint:errcheck // a broken pipe means the supervisor is gone; the next write or exit ends us
}

// WorkerMain is the worker-process entry point. It serves jobs until
// stdin ends or a job fails, and returns the process exit code;
// protocol-level failures (undecodable envelope) are the only nonzero
// exits.
func WorkerMain(ctx context.Context, stdin io.Reader, stdout, stderr io.Writer) int {
	dec := json.NewDecoder(stdin)
	dec.DisallowUnknownFields()
	out := &lineWriter{enc: json.NewEncoder(stdout)}
	for {
		var job jobEnvelope
		if err := dec.Decode(&job); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintf(stderr, "bvsimd worker: bad job envelope: %v\n", err)
			return 1
		}
		if !serveJob(ctx, job, out) {
			return 0
		}
	}
}

// serveJob runs one job under the heartbeat protocol and reports
// whether it ended in a result line, the one outcome after which the
// process may take another job.
func serveJob(ctx context.Context, job jobEnvelope, out *lineWriter) bool {
	// First heartbeat before any work: the supervisor uses it both to
	// arm chaos kills deterministically and to distinguish "worker
	// never took the job" from "worker died mid-run".
	out.send(workerLine{HB: true})

	if job.Stall {
		// Injected livelock: from here on the worker is silent. The
		// supervisor's watchdog must SIGKILL us; waiting on ctx keeps
		// the goroutine parked instead of spinning.
		<-ctx.Done()
		return false
	}

	hb := time.Duration(job.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				out.send(workerLine{HB: true})
			case <-stop:
				return
			}
		}
	}()

	res, err := runJob(ctx, job)
	close(stop)
	wg.Wait() // no heartbeat may trail the terminal line
	if err != nil {
		out.send(workerLine{Error: err.Error(), Kind: classifyError(err)})
		return false
	}
	out.send(workerLine{Result: &res})
	return true
}

func runJob(ctx context.Context, job jobEnvelope) (sim.Result, error) {
	p, ok := workload.ByName(workload.Suite(), job.Trace)
	if !ok {
		return sim.Result{}, fmt.Errorf("unknown trace %q", job.Trace)
	}
	return sim.RunSingleCtx(ctx, p, job.Config)
}

func classifyError(err error) string {
	var v *check.Violation
	if errors.As(err, &v) {
		return kindViolation
	}
	var p *sim.RunPanicError
	if errors.As(err, &p) {
		return kindPanic
	}
	return kindError
}
