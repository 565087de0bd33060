package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

// serve-open drives bvsimd open-loop: requests are due on a fixed
// schedule whether or not earlier ones have been answered, and each is
// timed from its due time, so a stall shows in every request it delays.
const (
	// serveRate is a third of what one node with its default two
	// workers completes of fresh requests alone, back to back over two
	// connections (about 125/s on the 2-core reference host in a fast
	// spell). The host's speed swings by up to 2x, and a rate nearer
	// capacity turns each slow spell into a backlog.
	serveRate = 42.0
	// senders is the generator's connection count: nproc of the
	// reference host, per the benchmark's definition.
	senders = 2
	// freshBase is the lowest budget of a fresh request. The seed moves
	// the first budget up by less than 1000; each later fresh request
	// adds one instruction, so every fresh key is new.
	freshBase = 5000
	// repeatLag: a repeat reuses a key issued at least this many
	// requests earlier (about 0.4 s), so it has normally been answered.
	repeatLag = 32
	// serverWait bounds how long bvsimd may take to start or drain.
	serverWait = 15 * time.Second
)

// serveKey is what makes a request fresh or a repeat.
type serveKey struct {
	Trace string
	Org   sim.OrgKind
	Ins   uint64
}

// serveReq is one scheduled request.
type serveReq struct {
	due   time.Duration // since the start of the pass
	key   serveKey
	fresh bool
	body  []byte
}

func requestBody(k serveKey) []byte {
	// Marshaling strings and an integer cannot fail.
	b, _ := json.Marshal(struct {
		Trace        string            `json:"trace"`
		Instructions uint64            `json:"instructions"`
		Config       map[string]string `json:"config"`
	}{k.Trace, k.Ins, map[string]string{"Org": string(k.Org)}})
	return b
}

// serveRequests is how many requests a serve-open run of d schedules.
func serveRequests(d time.Duration) int { return int(serveRate * d.Seconds()) }

// serveSchedule lays out n requests at serveRate. Two in five, the
// second and the fifth of every five, repeat an earlier key chosen by
// the seed, so the median request is a fresh one rather than sitting on
// the edge between the fast repeats and the slower fresh runs. No three
// fresh requests fall due back to back: with two workers the third
// would queue whenever a fresh run outlasts two intervals, so the tail
// would swing with the host's speed. The fresh requests cycle through
// the traces and both organizations with fresh budgets.
func serveSchedule(seed uint64, n int, traces []string) []serveReq {
	r := &rng{s: seed}
	base := freshBase + splitmix64(seed)%1000
	reqs := make([]serveReq, n)
	fresh := 0
	for i := range reqs {
		reqs[i].due = time.Duration(float64(i) / serveRate * float64(time.Second))
		if i >= repeatLag && (i%5 == 1 || i%5 == 4) {
			reqs[i].key = reqs[r.intn(i-repeatLag+1)].key
		} else {
			reqs[i].key = serveKey{
				Trace: traces[fresh%len(traces)],
				Org:   orgs[(fresh/len(traces))%len(orgs)],
				Ins:   base + uint64(fresh),
			}
			reqs[i].fresh = true
			fresh++
		}
		reqs[i].body = requestBody(reqs[i].key)
	}
	return reqs
}

// rng is a deterministic stream of choices.
type rng struct{ s uint64 }

func (r *rng) intn(n int) int {
	r.s++
	return int(splitmix64(r.s) % uint64(n))
}

// serveOutcome is one request's fate.
type serveOutcome struct {
	status  int
	err     error
	body    []byte
	latency time.Duration // due time to response
	late    time.Duration // due time to send
	traceID string
}

// drive sends reqs open-loop: a dispatcher releases each request at its
// due time to a fixed set of senders, one keep-alive connection each.
func drive(ctx context.Context, client *http.Client, base string, reqs []serveReq, tracer *otrace.Tracer) []serveOutcome {
	out := make([]serveOutcome, len(reqs))
	// One slot per request, so the dispatcher never waits on senders.
	work := make(chan int, len(reqs))
	start := time.Now()
	go func() {
		defer close(work)
		for i := range reqs {
			if d := time.Until(start.Add(reqs[i].due)); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
			work <- i
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = send(ctx, client, base, reqs[i], start.Add(reqs[i].due), tracer)
			}
		}()
	}
	wg.Wait()
	return out
}

// send issues one request. Its span's trace ID travels as X-BV-Trace,
// so bvsimd's spans for the request join it.
func send(ctx context.Context, client *http.Client, base string, q serveReq, due time.Time, tracer *otrace.Tracer) serveOutcome {
	o := serveOutcome{late: time.Since(due)}
	sp := tracer.Start("bench.request", otrace.KindClient, "", "")
	defer sp.End()
	sp.SetAttr("trace", q.key.Trace)
	sp.SetAttr("org", string(q.key.Org))
	sp.SetAttrInt("instructions", int64(q.key.Ins))
	o.traceID = sp.TraceID()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(q.body))
	if err != nil {
		o.err = err
		sp.Fail(err)
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	sp.Inject(req.Header)
	resp, err := client.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.latency = time.Since(due)
	o.err = err
	sp.Fail(err)
	return o
}

// canonResult re-encodes a /v1/run response's result compactly, the
// form compared across repeats and against in-process runs.
func canonResult(body []byte) (string, error) {
	var r struct {
		Result sim.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	b, err := json.Marshal(r.Result)
	return string(b), err
}

// server is one bvsimd process and its checkpoint directory.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{} // closed once the process has been waited for
}

// startServer launches bvsimd on a free port with a fresh checkpoint
// store and waits until it answers /healthz. The queue and the flight
// recorder are sized so a run's requests are never shed or forgotten;
// quotas stay off, workers stay at their default.
func startServer(ctx context.Context, bin, dir string, client *http.Client) (*server, error) {
	if bin == "" {
		return nil, errors.New("no bvsimd binary given (--bvsimd)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-cache-dir", dir,
		"-queue-depth", "1024", "-trace-capacity", "16384")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bvsimd: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bvsimd: serving on "); ok {
				select {
				case addr <- strings.Fields(a)[0]:
				default:
				}
			}
		}
		// Reading to EOF before Wait keeps Wait from racing the reads.
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, errors.New("bvsimd exited before serving")
	case <-time.After(serverWait):
		s.kill()
		return nil, errors.New("bvsimd did not report its address")
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(serverWait); ; time.Sleep(10 * time.Millisecond) {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("bvsimd never became healthy: %v", err)
		}
	}
}

// kill hard-stops the server and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-s.done
	os.RemoveAll(s.dir) //nolint:errcheck // scratch under the run's output directory
}

// stop drains the server (SIGTERM), waits for it, removes its store and
// returns the peak resident set, in MB, of the largest of the server
// and the worker processes it ran.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	select {
	case <-s.done:
	case <-time.After(serverWait):
		s.kill()
		return 0, errors.New("bvsimd did not drain in time")
	}
	os.RemoveAll(s.dir) //nolint:errcheck // scratch under the run's output directory
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for bvsimd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// get decodes a JSON document from the server.
func (s *server) get(client *http.Client, path string, v any) error {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveSetup starts a server and warms it with two fresh requests that
// lie outside the schedule's keys (worker start, first checkpoint).
func serveSetup(ctx context.Context, env *runEnv, client *http.Client, traces []string, n int) (*server, error) {
	s, err := startServer(ctx, env.bvsimd, filepath.Join(env.out, fmt.Sprintf("store-%d-%d", os.Getpid(), n)), client)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		q := serveReq{key: serveKey{Trace: traces[i], Org: orgs[i], Ins: 1000}}
		q.body = requestBody(q.key)
		if o := send(ctx, client, s.base, q, time.Now(), nil); o.err != nil || o.status != http.StatusOK {
			s.kill()
			return nil, fmt.Errorf("warm-up request failed: status %d, %v", o.status, o.err)
		}
	}
	return s, nil
}

// serveTally accumulates a pass's outcomes.
type serveTally struct {
	results   map[serveKey]string
	fresh     int
	latencies []float64                 // ms, answered requests
	lates     []float64                 // ms, every request
	freshMIPS map[sim.OrgKind][]float64 // per fresh request
	failures  map[string]int
}

func newTally() *serveTally {
	return &serveTally{results: map[serveKey]string{}, freshMIPS: map[sim.OrgKind][]float64{}, failures: map[string]int{}}
}

// add checks and counts one pass; it returns the attempted and failed
// counts.
func (t *serveTally) add(reqs []serveReq, outs []serveOutcome) (attempted, failed int) {
	for i, o := range outs {
		q := reqs[i]
		attempted++
		t.lates = append(t.lates, ms(o.late))
		if o.err != nil || o.status != http.StatusOK {
			failed++
			t.failures[fmt.Sprintf("status %d %v", o.status, o.err)]++
			continue
		}
		canon, err := canonResult(o.body)
		if err != nil {
			failed++
			t.failures["undecodable response"]++
			continue
		}
		if prev, ok := t.results[q.key]; ok && prev != canon {
			failed++
			t.failures["repeat answered differently"]++
			continue
		} else if !ok {
			t.results[q.key] = canon
		}
		t.latencies = append(t.latencies, ms(o.latency))
		if q.fresh {
			t.fresh++
			t.freshMIPS[q.key.Org] = append(t.freshMIPS[q.key.Org], float64(q.key.Ins)/o.latency.Seconds()/1e6)
		}
	}
	return attempted, failed
}

// digest hashes every answered key's result, in key order.
func (t *serveTally) digest() string {
	keys := make([]serveKey, 0, len(t.results))
	for k := range t.results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Ins != b.Ins {
			return a.Ins < b.Ins
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.Org < b.Org
	})
	canon := make([]string, len(keys))
	for i, k := range keys {
		canon[i] = fmt.Sprintf("%s/%s/%d %s", k.Trace, k.Org, k.Ins, t.results[k])
	}
	return digest(canon)
}

// checkJobs re-simulates the first answered fresh key of every (trace,
// org) pair in process and compares it with what the service answered.
// It returns the jobs, their outcomes and untraced durations, for the
// traced run's ledger.
func checkJobs(ctx context.Context, reqs []serveReq, t *serveTally, rep *report) ([]simJob, []simOutcome, []float64, float64, error) {
	var sample []serveKey
	seen := map[serveKey]bool{}
	for _, q := range reqs {
		pair := serveKey{Trace: q.key.Trace, Org: q.key.Org}
		if _, ok := t.results[q.key]; ok && q.fresh && !seen[pair] {
			seen[pair] = true
			sample = append(sample, q.key)
		}
	}
	if len(sample) == 0 {
		return nil, nil, nil, 0, errors.New("no fresh request was answered")
	}
	all := workload.Suite()
	var (
		jobs     []simJob
		outs     []simOutcome
		durs     []float64
		ins      uint64
		ms0, ms1 runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	for _, k := range sample {
		p, ok := workload.ByName(all, k.Trace)
		if !ok {
			return nil, nil, nil, 0, fmt.Errorf("unknown trace %q", k.Trace)
		}
		cfg := sim.Default()
		cfg.Org, cfg.Instructions = k.Org, k.Ins
		j := simJob{single: &p, cfg: cfg}
		var d []float64
		var res sim.Result
		for r := 0; r < replayReps; r++ {
			t0 := time.Now()
			var err error
			res, err = sim.RunSingleCtx(ctx, p, cfg)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			d = append(d, float64(time.Since(t0)))
			ins += cfg.Instructions
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		rep.attempted++
		if string(b) != t.results[k] {
			rep.failed++
			rep.infof("failed: %s/%s/%d answered differently from an in-process sim.RunSingle", k.Trace, k.Org, k.Ins)
		}
		jobs = append(jobs, j)
		outs = append(outs, simOutcome{canon: canonSingle(res), result: res})
		durs = append(durs, median(d))
	}
	runtime.ReadMemStats(&ms1)
	return jobs, outs, durs, perK(ms1.Mallocs-ms0.Mallocs, ins), nil
}

// spanStats groups bvsimd's spans of the given traces by name (ms).
func spanStats(recs []otrace.Rec, ours map[string]bool) map[string][]float64 {
	by := map[string][]float64{}
	for _, r := range recs {
		if !ours[r.Trace] {
			continue
		}
		for _, s := range r.Spans {
			by[s.Name] = append(by[s.Name], float64(s.DurUS)/1000)
		}
	}
	return by
}

type statusDoc struct {
	Metrics struct {
		Counters map[string]uint64 `json:"counters"`
	} `json:"metrics"`
}

// serveWorkload runs serve-open.
func serveWorkload(ctx context.Context, env *runEnv) (*report, error) {
	rep := newReport()
	root := env.tracer.Start("bench.workload", otrace.KindInternal, "", "")
	root.SetAttr("workload", env.workload)
	defer root.End()

	traces, err := serveTraces()
	if err != nil {
		return nil, err
	}
	rep.infof("traces: %s", strings.Join(traces, ", "))
	transport := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := serveSetup(ctx, env, client, traces, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	n := serveRequests(env.seconds)
	reqs := serveSchedule(env.seed, n, traces)
	tally := newTally()
	var outs []serveOutcome
	var untracedMean, tracedMean float64
	var before, after statusDoc
	ours := map[string]bool{}
	if !env.trace {
		outs = drive(ctx, client, srv.base, reqs, nil)
	} else {
		// Half the schedule untraced, half traced, so the difference
		// shows the tracing overhead.
		half := n / 2
		a := drive(ctx, client, srv.base, reqs[:half], nil)
		second := append([]serveReq(nil), reqs[half:]...)
		for i := range second {
			second[i].due -= reqs[half].due
		}
		if err := srv.get(client, "/statusz", &before); err != nil {
			return nil, err
		}
		b := drive(ctx, client, srv.base, second, env.tracer)
		if err := srv.get(client, "/statusz", &after); err != nil {
			return nil, err
		}
		untracedMean, tracedMean = meanLatency(a), meanLatency(b)
		for _, o := range b {
			ours[o.traceID] = true
		}
		outs = append(a, b...)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	att, failed := tally.add(reqs, outs)
	rep.attempted += att
	rep.failed += failed
	for why, c := range tally.failures {
		rep.infof("failed: %d requests: %s", c, why)
	}
	rep.infof("digest: %s (%d keys)", tally.digest(), len(tally.results))
	rep.infof("requests: %d at %.0f/s over %d connections, %d answered, %d fresh",
		len(reqs), serveRate, senders, len(tally.latencies), tally.fresh)
	if !tailOK(len(tally.latencies), 0.99) {
		rep.failed++
		rep.infof("failed: only %d requests answered, too few for a p99 with %d beyond it", len(tally.latencies), minTail)
	}

	var recs struct {
		Traces []otrace.Rec `json:"traces"`
	}
	if env.trace {
		if err := srv.get(client, "/debug/requests?n=16384", &recs); err != nil {
			return nil, err
		}
	}
	stopped = true
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}

	jobs, ref, durs, allocs, err := checkJobs(ctx, reqs, tally, rep)
	if err != nil {
		return nil, err
	}
	if !env.trace {
		// The host-speed probe would compete with the server for the
		// CPU here, so serve-open's timings are reported as measured.
		rep.set("setup_s", median(setups))
		for _, org := range orgs {
			rep.set("mips_"+string(org), median(tally.freshMIPS[org]))
		}
		rep.set("req_p50_ms", median(tally.latencies))
		rep.set("req_p99_ms", percentile(tally.latencies, 0.99))
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}

	led, err := traceLedger(ctx, root, jobs, ref, durs)
	if err != nil {
		return nil, err
	}
	rep.failed += led.failed
	led.allocsPerKIns = allocs
	led.report(rep)
	spans := spanStats(recs.Traces, ours)
	rep.set("serve.queue_wait_ms_p50", median(spans["queue.wait"]))
	rep.set("serve.queue_wait_ms_p99", percentile(spans["queue.wait"], 0.99))
	rep.set("serve.exec_ms_p50", median(spans["serve.exec"]))
	rep.set("serve.exec_ms_p99", percentile(spans["serve.exec"], 0.99))
	rep.set("serve.store_read_ms_p50", median(spans["store.read"]))
	rep.set("serve.store_claim_ms_p50", median(spans["store.claim"]))
	rep.set("serve.store_write_ms_p50", median(spans["store.write"]))
	completed := after.Metrics.Counters["serve.completed"] - before.Metrics.Counters["serve.completed"]
	executed := after.Metrics.Counters["serve.runs_executed"] - before.Metrics.Counters["serve.runs_executed"]
	rep.set("serve.memo_answer_ratio", ratio(float64(completed)-float64(executed), float64(completed)))
	rep.set("bench.gen_late_ms_p99", percentile(tally.lates, 0.99))
	rep.set("bench.trace_overhead_ratio", ratio(tracedMean, untracedMean))
	rep.infof("serve spans: %d traced requests joined by bvsimd (%d queue.wait spans)", len(ours), len(spans["queue.wait"]))
	return rep, nil
}

// meanLatency is the mean due-to-response time of a pass, in ms.
func meanLatency(outs []serveOutcome) float64 {
	var s float64
	for _, o := range outs {
		s += ms(o.latency)
	}
	return ratio(s, float64(len(outs)))
}
