package serve

// The supervisor side of the worker-process pool. Each simulation
// dispatched here runs in a child process (the service's own binary
// re-exec'd with BVSIMD_WORKER=1), so a crash — a segfault, an OOM
// kill, a chaos SIGKILL — costs one attempt, never the service. A
// worker serves jobs in sequence: after a result line it goes back to
// an idle set (at most maxIdle strong) and the next attempt takes it
// instead of paying for a process start. The supervisor:
//
//   - watches the heartbeat stream and SIGKILLs a worker that goes
//     silent past the hung-run horizon (livelock detection);
//   - retries crashed and hung attempts with capped exponential
//     backoff and seeded jitter (deterministic under test);
//   - never retries structured failures (checker violations,
//     contained panics, bad configs) — those are deterministic
//     properties of the key, so the first answer is the answer;
//   - quarantines a key after MaxAttempts crash-type failures:
//     later requests fail fast with a structured error instead of
//     burning worker slots on a poison run;
//   - kills and reaps a worker after anything but a result line (a
//     crash, a hang, a chaos kill, a cancelled request, a structured
//     failure), so a process whose job failed never serves another
//     key.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// RunError is a structured, client-visible run failure. Kind is one of
// "violation", "panic", "error", or "quarantined"; the HTTP layer maps
// it to a status code and the JSON error body, so no fault class ever
// degenerates into an opaque 500 string — and never into a silently
// wrong table.
type RunError struct {
	Kind     string `json:"kind"`
	Msg      string `json:"error"`
	Attempts int    `json:"attempts,omitempty"`
}

func (e *RunError) Error() string { return e.Msg }

const kindQuarantined = "quarantined"

type poolConfig struct {
	argv        []string      // worker command line (the service binary itself)
	heartbeat   time.Duration // worker heartbeat period
	hungAfter   time.Duration // silence horizon before a worker is presumed hung
	maxAttempts int           // attempts per key before quarantine
	maxIdle     int           // idle live workers kept between jobs
	backoffBase time.Duration // first retry delay (pre-jitter)
	backoffCap  time.Duration // retry delay ceiling
	seed        uint64        // jitter seed: chaos tests replay exact schedules
	chaos       *chaosSpec    // injected faults, nil for none
}

type pool struct {
	cfg poolConfig
	m   *metrics

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// attempts counts job attempts, service-wide; the chaos spec
	// addresses faults by this index.
	attempts atomic.Int64

	mu          sync.Mutex
	quarantined map[string]*RunError
	idle        []*worker // live workers waiting for a job, most recent last
	live        int       // workers started and not yet reaped
	closed      bool      // set by close: no worker is parked after it
}

func newPool(cfg poolConfig, m *metrics) *pool {
	if cfg.heartbeat <= 0 {
		cfg.heartbeat = 250 * time.Millisecond
	}
	if cfg.hungAfter <= 0 {
		cfg.hungAfter = 10 * cfg.heartbeat
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = 3
	}
	if cfg.backoffBase <= 0 {
		cfg.backoffBase = 50 * time.Millisecond
	}
	if cfg.backoffCap <= 0 {
		cfg.backoffCap = 2 * time.Second
	}
	seed := cfg.seed
	if seed == 0 {
		seed = 1
	}
	return &pool{
		cfg:         cfg,
		m:           m,
		jitter:      rand.New(rand.NewSource(int64(seed))),
		quarantined: make(map[string]*RunError),
	}
}

func quarantineKey(trace string, cfg sim.Config) string {
	return fmt.Sprintf("%s|%#v", trace, cfg)
}

func (pl *pool) quarantineFor(key string) *RunError {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.quarantined[key]
}

func (pl *pool) quarantineCount() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.quarantined)
}

// run is the figures.Session runner: it executes one (trace, config)
// in a supervised worker process, retrying transient faults. It is
// called on cache and checkpoint misses only, so every retry here is
// work that genuinely has to happen.
func (pl *pool) run(ctx context.Context, p workload.Profile, cfg sim.Config) (sim.Result, error) {
	key := quarantineKey(p.Name, cfg)
	if re := pl.quarantineFor(key); re != nil {
		return sim.Result{}, re
	}
	parent := otrace.FromContext(ctx)
	var lastCrash error
	for attempt := 1; attempt <= pl.cfg.maxAttempts; attempt++ {
		if attempt > 1 {
			pl.m.touch(pl.m.retries.Inc)
			bsp := parent.Child("worker.backoff", otrace.KindInternal)
			err := sleepCtx(ctx, pl.backoff(attempt))
			bsp.End()
			if err != nil {
				return sim.Result{}, err
			}
		}
		asp := parent.Child("worker.attempt", otrace.KindClient)
		asp.SetAttrInt("attempt", int64(attempt))
		res, retryable, err := pl.attempt(ctx, asp, p.Name, cfg)
		switch {
		case err == nil:
			pl.m.touch(func() { pl.m.attempts.Observe(uint64(attempt)) })
			return res, nil
		case !retryable:
			return sim.Result{}, err
		}
		lastCrash = err
		pl.m.touch(pl.m.restarts.Inc)
	}
	re := &RunError{
		Kind: kindQuarantined,
		Msg: fmt.Sprintf("%s on %s quarantined after %d failed attempts (last: %v)",
			p.Name, cfg.Org, pl.cfg.maxAttempts, lastCrash),
		Attempts: pl.cfg.maxAttempts,
	}
	pl.mu.Lock()
	pl.quarantined[key] = re
	pl.mu.Unlock()
	pl.m.touch(pl.m.quarantined.Inc)
	return sim.Result{}, re
}

// backoff computes the pre-attempt delay: capped exponential in the
// attempt number, scaled by seeded jitter in [0.5, 1.5) so a thundering
// herd of retries decorrelates — deterministically, given the seed.
func (pl *pool) backoff(attempt int) time.Duration {
	d := pl.cfg.backoffBase << uint(attempt-2)
	if d <= 0 || d > pl.cfg.backoffCap {
		d = pl.cfg.backoffCap
	}
	pl.jitterMu.Lock()
	f := 0.5 + pl.jitter.Float64()
	pl.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attempt runs one job attempt on a worker process and shepherds it to
// an outcome. retryable marks faults worth another attempt (crash,
// hang); structured simulation failures and context cancellation are
// terminal. sp is the attempt's span; the supervisor owns it because
// the worker is a child process with no tracer — the heartbeat count
// observed here is the span's record of the worker's liveness
// protocol.
func (pl *pool) attempt(ctx context.Context, sp *otrace.Span, trace string, cfg sim.Config) (res sim.Result, retryable bool, err error) {
	heartbeats := 0
	defer func() {
		sp.SetAttrInt("heartbeats", int64(heartbeats))
		if retryable {
			sp.SetAttr("retryable", "true")
		}
		sp.Fail(err)
		sp.End()
	}()
	seq := int(pl.attempts.Add(1))
	act := pl.cfg.chaos.action(seq)
	sp.SetAttrInt("attempt_seq", int64(seq))
	env := jobEnvelope{
		Trace:       trace,
		Config:      cfg,
		HeartbeatMS: int(pl.cfg.heartbeat / time.Millisecond),
		Stall:       act == chaosStall,
	}
	watchdog := time.NewTimer(pl.cfg.hungAfter)
	defer watchdog.Stop()
next:
	for {
		w, reused, serr := pl.get()
		if serr != nil {
			return sim.Result{}, true, serr
		}
		mark := w.stderr.mark()
		json.NewEncoder(w.stdin).Encode(env) //nolint:errcheck // a dead worker surfaces as EOF-without-result below
		rearm(watchdog, pl.cfg.hungAfter)
		sawHeartbeat := false
		for {
			select {
			case <-ctx.Done():
				pl.retire(w) //nolint:errcheck // the context error is the story
				return sim.Result{}, false, ctx.Err()
			case <-watchdog.C:
				pl.retire(w) //nolint:errcheck // the hang is the story
				pl.m.touch(pl.m.hungKills.Inc)
				return sim.Result{}, true, fmt.Errorf(
					"worker hung on %s (attempt %d): no heartbeat within %v; killed",
					trace, seq, pl.cfg.hungAfter)
			case ln, ok := <-w.lines:
				if !ok {
					pl.reap(w) //nolint:errcheck // the exit status is read from ProcessState
					if reused && !sawHeartbeat {
						// The worker died while idle: it never took this
						// job, so a fresh one runs it and no attempt is
						// spent.
						continue next
					}
					msg := strings.TrimSpace(w.stderr.since(mark))
					if msg != "" {
						msg = "; stderr: " + msg
					}
					return sim.Result{}, true, fmt.Errorf(
						"worker for %s (attempt %d) exited without a result: %v%s",
						trace, seq, w.cmd.ProcessState, msg)
				}
				rearm(watchdog, pl.cfg.hungAfter)
				switch {
				case ln.Result != nil:
					pl.put(w)
					return *ln.Result, false, nil
				case ln.Error != "":
					pl.retire(w) //nolint:errcheck // structured error already in hand
					kind := ln.Kind
					if kind == "" {
						kind = kindError
					}
					return sim.Result{}, false, &RunError{Kind: kind, Msg: ln.Error}
				default: // heartbeat
					heartbeats++
					if act == chaosKill && !sawHeartbeat {
						// Chaos: the worker dies right after proving it was
						// alive — the harshest crash point, since the
						// supervisor cannot tell it from a mid-run segfault.
						pl.m.touch(pl.m.chaosKills.Inc)
						w.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
					}
					sawHeartbeat = true
				}
			}
		}
	}
}

// rearm restarts the hung-run horizon.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// worker is one live worker process.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	lines  chan workerLine // stdout's JSON lines; closed at EOF
	stderr *stderrTail
}

// get hands out an idle worker, the most recently parked first, or
// starts a new one; reused reports which.
func (pl *pool) get() (w *worker, reused bool, err error) {
	pl.mu.Lock()
	if n := len(pl.idle); n > 0 {
		w = pl.idle[n-1]
		pl.idle[n-1] = nil
		pl.idle = pl.idle[:n-1]
		pl.mu.Unlock()
		return w, true, nil
	}
	pl.mu.Unlock()
	w, err = pl.start()
	return w, false, err
}

// start launches a worker process and its stdout reader.
func (pl *pool) start() (*worker, error) {
	cmd := exec.Command(pl.cfg.argv[0], pl.cfg.argv[1:]...)
	cmd.Env = append(os.Environ(), workerEnvVar+"=1")
	cmd.SysProcAttr = workerSysProcAttr()
	w := &worker{cmd: cmd, lines: make(chan workerLine), stderr: &stderrTail{}}
	cmd.Stderr = w.stderr
	var err error
	if w.stdout, err = cmd.StdoutPipe(); err != nil {
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	if w.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("worker pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("worker start: %w", err)
	}
	pl.mu.Lock()
	pl.live++
	pl.mu.Unlock()
	pl.m.touch(pl.m.starts.Inc)
	// One goroutine owns stdout for the worker's whole life; the
	// attempt that holds the worker owns the watchdog. Lines flow over
	// an unbuffered channel so a heartbeat is observed the moment it
	// arrives, and an idle worker's reader parks until a line or EOF.
	go func() {
		defer close(w.lines)
		sc := bufio.NewScanner(w.stdout)
		sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
		for sc.Scan() {
			var ln workerLine
			if json.Unmarshal(sc.Bytes(), &ln) != nil {
				continue // stray stdout noise neither feeds nor resets the watchdog
			}
			w.lines <- ln
		}
	}()
	return w, nil
}

// put parks a worker whose job ended in a result line, or shuts it
// down when the idle set is full or the pool is closed.
func (pl *pool) put(w *worker) {
	pl.mu.Lock()
	if !pl.closed && len(pl.idle) < pl.cfg.maxIdle {
		pl.idle = append(pl.idle, w)
		pl.mu.Unlock()
		return
	}
	pl.mu.Unlock()
	pl.shutdown([]*worker{w})
}

// close shuts down every idle worker and waits for each; a worker that
// finishes a job later is shut down instead of parked. The service
// calls it once its dispatchers are done, so no worker outlives it.
func (pl *pool) close() {
	pl.mu.Lock()
	pl.closed = true
	idle := pl.idle
	pl.idle = nil
	pl.mu.Unlock()
	pl.shutdown(idle)
}

// shutdown ends idle workers the clean way, by closing their stdin,
// and reaps them; one that has not exited within the hung-run horizon
// is killed.
func (pl *pool) shutdown(ws []*worker) {
	for _, w := range ws {
		w.stdin.Close() //nolint:errcheck // EOF is the message; a dead worker is reaped below either way
	}
	for _, w := range ws {
		t := time.AfterFunc(pl.cfg.hungAfter, func() {
			w.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		})
		pl.reap(w) //nolint:errcheck // a clean exit; the status carries nothing
		t.Stop()
	}
}

// retire kills a worker and reaps it.
func (pl *pool) retire(w *worker) error {
	w.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	return pl.reap(w)
}

// reap drains the worker's reader goroutine and collects the process;
// every worker's life ends here, or the pipe goroutine leaks.
func (pl *pool) reap(w *worker) error {
	//lint:allow gorolifecycle one-shot pipe Close returns promptly; it exists to unblock the scanner goroutine
	go w.stdout.Close() //nolint:errcheck // unblocks the scanner if the worker never closes its end
	for range w.lines {
	}
	err := w.cmd.Wait()
	pl.mu.Lock()
	pl.live--
	pl.mu.Unlock()
	return err
}

// stderrKeep bounds the stderr kept per worker.
const stderrKeep = 16 << 10

// stderrTail keeps the last stderrKeep bytes a worker wrote to stderr
// and counts every byte, so a crash error can quote just the current
// job's part of the stream.
type stderrTail struct {
	mu    sync.Mutex
	buf   []byte
	total int64
}

func (t *stderrTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += int64(len(p))
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - stderrKeep; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

// mark is the stream position a job starts at.
func (t *stderrTail) mark() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// since returns what was written after mark, as far as it is kept.
func (t *stderrTail) since(mark int64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.total-mark, int64(len(t.buf)))
	return string(t.buf[len(t.buf)-int(n):])
}
