package serve

// The HTTP/JSON surface of bvsimd.
//
//	GET  /healthz     liveness ("ok" | 503 "draining")
//	GET  /statusz     queue/worker/checkpoint/metrics document
//	GET  /v1/traces   the workload suite (name, category, sensitive)
//	POST /v1/run      one (trace, config) simulation
//	POST /v1/sweep    one config across many traces, admitted atomically
//	     /debug/...   expvar (incl. "serve") and pprof
//
// Failure responses are always structured JSON — {"error", "kind",
// optional "attempts"} — plus Retry-After on every 429/503, so a
// client can tell a shed from a quarantine from a checker violation
// without parsing prose.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	otrace "basevictim/internal/obs/trace"
	"basevictim/internal/sim"
	"basevictim/internal/workload"
)

const maxBodyBytes = 1 << 20

// maxLLCBytes caps a request's LLC size. A worker sizes the
// organization's tag arrays from it, so without a cap one request
// could ask for terabytes; 64 MiB is over 5x the largest LLC any
// shipped experiment uses (12 MiB, Fig. 13).
const maxLLCBytes = 64 << 20

// decodeBody reads one strict JSON value: unknown fields and trailing
// data are errors, not silently dropped intent.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON body")
	}
	return nil
}

func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statusz", s.handleStatus)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	// The flight recorder. More specific than the /debug/ delegation
	// below, so ServeMux pattern precedence routes it here.
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	// expvar and pprof register themselves on the default mux (the obs
	// package imports net/http/pprof); delegating /debug/ picks up
	// /debug/vars and /debug/pprof/* without re-plumbing either.
	mux.Handle("GET /debug/", http.DefaultServeMux)
	return mux
}

// errorBody is every failure response. Kind echoes RunError kinds plus
// the admission-layer ones: "bad_request", "overloaded", "quota",
// "draining", "deadline", "cancelled".
type errorBody struct {
	Error    string `json:"error"`
	Kind     string `json:"kind"`
	Attempts int    `json:"attempts,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a gone client cannot be answered harder
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}

// writeShed emits a backpressure response: 429/503 with Retry-After in
// whole seconds (rounded up; the header has no finer unit).
func writeShed(w http.ResponseWriter, status int, kind, msg string, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, status, kind, msg)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeShed(w, http.StatusServiceUnavailable, "draining", "draining", time.Second)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	type traceInfo struct {
		Name      string `json:"name"`
		Category  string `json:"category"`
		Sensitive bool   `json:"sensitive"`
	}
	all := workload.Suite()
	out := make([]traceInfo, 0, len(all))
	for _, p := range all {
		out = append(out, traceInfo{Name: p.Name, Category: p.Category.String(), Sensitive: p.Sensitive})
	}
	writeJSON(w, http.StatusOK, out)
}

// runRequest is the /v1/run body. Config, when present, is decoded
// over sim.Default() with unknown fields rejected, so a client can
// patch just {"Org": "uncompressed"}; instructions and timeout_ms sit
// outside because the admission layer owns their caps.
type runRequest struct {
	Trace        string          `json:"trace"`
	Instructions uint64          `json:"instructions,omitempty"`
	TimeoutMS    int             `json:"timeout_ms,omitempty"`
	Config       json.RawMessage `json:"config,omitempty"`
	// Class is the admission priority: "interactive" (default) or
	// "batch" (yields to interactive, starvation-free floor).
	Class string `json:"class,omitempty"`
}

type runResponse struct {
	Trace  string     `json:"trace"`
	Result sim.Result `json:"result"`
}

// buildConfig turns a request's config patch + budget into the full
// sim.Config, enforcing the admission caps and refusing any config the
// simulator would reject (sim.Config.Validate), so a doomed request
// never reaches a worker.
func (s *Server) buildConfig(raw json.RawMessage, instructions uint64) (sim.Config, error) {
	cfg := sim.Default()
	if len(raw) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return sim.Config{}, fmt.Errorf("bad config: %v", err)
		}
	}
	if instructions > 0 {
		cfg.Instructions = instructions
	}
	if cfg.Instructions == 0 {
		return sim.Config{}, errors.New("instruction budget must be positive")
	}
	if cfg.Instructions > s.cfg.MaxInstructions {
		return sim.Config{}, fmt.Errorf("instruction budget %d exceeds the server cap %d",
			cfg.Instructions, s.cfg.MaxInstructions)
	}
	if cfg.LLCSizeBytes > maxLLCBytes {
		return sim.Config{}, fmt.Errorf("LLC size %d bytes exceeds the server cap %d",
			cfg.LLCSizeBytes, maxLLCBytes)
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// parseRun decodes and admits a /v1/run body: a known trace, a config
// that can run within the budget cap, and a known class. Every error
// is the client's; handleRun answers it 400 bad_request.
func (s *Server) parseRun(body io.Reader) (runRequest, sim.Config, class, error) {
	var req runRequest
	if err := decodeBody(body, &req); err != nil {
		return req, sim.Config{}, 0, fmt.Errorf("bad request body: %w", err)
	}
	if _, ok := workload.ByName(workload.Suite(), req.Trace); !ok {
		return req, sim.Config{}, 0, fmt.Errorf("unknown trace %q", req.Trace)
	}
	cfg, err := s.buildConfig(req.Config, req.Instructions)
	if err != nil {
		return req, sim.Config{}, 0, err
	}
	cls, err := parseClass(req.Class, classInteractive)
	if err != nil {
		return req, sim.Config{}, 0, err
	}
	return req, cfg, cls, nil
}

// clientID attributes a request to a quota bucket: the X-Client-ID
// header when present, else the peer IP.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// requestTimeout resolves the effective per-request deadline.
func (s *Server) requestTimeout(ms int) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.m.touch(s.m.shedDrain.Inc)
		writeShed(w, http.StatusServiceUnavailable, "draining",
			"draining: not accepting new runs", 5*time.Second)
		return
	}
	req, cfg, cls, err := s.parseRun(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	root := s.startSpan(r, "serve.run")
	defer root.End()
	defer s.observeRequest(root)()
	root.SetAttr("workload", req.Trace)
	root.SetAttr("class", cls.String())
	// Quota is charged at the edge node only: a forwarded request was
	// already charged where the client connected.
	if !isForwarded(r) {
		qsp := root.Child("serve.quota", otrace.KindInternal)
		ok, retry := s.quota.take(clientID(r), 1)
		if !ok {
			qsp.Fail(errors.New("over quota"))
			qsp.End()
			root.Fail(errors.New("shed: quota"))
			s.m.touch(s.m.shedQuota.Inc)
			writeShed(w, http.StatusTooManyRequests, "quota", "client over its request quota", retry)
			return
		}
		qsp.End()
		if s.maybeForward(w, r, req.Trace, cfg, req, root) {
			return
		}
	}
	s.markServedBy(w)
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	j := &job{ctx: ctx, trace: req.Trace, cfg: cfg, class: cls, done: make(chan jobResult, 1),
		span: root, qspan: root.Child("queue.wait", otrace.KindInternal)}
	j.qspan.SetAttr("class", cls.String())
	if !s.admit(j) {
		j.qspan.Fail(errors.New("queue full"))
		j.qspan.End()
		root.Fail(errors.New("shed: queue full"))
		w.Header().Set("X-Queue-Depth", fmt.Sprintf("%d", s.q.depth()))
		writeShed(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("admission queue full (%d deep)", s.cfg.QueueDepth), time.Second)
		return
	}
	s.await(w, ctx, j)
}

// startSpan begins a request's root span, continuing the propagated
// trace when the X-BV-Trace/X-BV-Parent headers carry one — the parent
// being the forwarding peer's attempt span, which is what stitches the
// per-node trees into one cross-peer trace.
func (s *Server) startSpan(r *http.Request, name string) *otrace.Span {
	if s.tracer == nil {
		return nil
	}
	traceID, parentID, err := otrace.Extract(r.Header)
	if err != nil {
		// A malformed header is the sender's bug, not a reason to lose
		// this request's trace: count it and originate a fresh one.
		s.m.touch(s.m.tracePropErr.Inc)
		traceID, parentID = "", ""
	}
	return s.tracer.Start(name, otrace.KindServer, traceID, parentID)
}

// observeRequest returns the deferred latency observation for one
// request, feeding the serve.request_ms histogram with the trace ID as
// the bucket exemplar — the p99 bucket then names a flight-recorder
// trace an operator can open.
func (s *Server) observeRequest(root *otrace.Span) func() {
	start := time.Now()
	return func() {
		ms := uint64(time.Since(start).Milliseconds())
		s.m.touch(func() { s.m.requestMS.ObserveExemplar(ms, root.TraceID()) })
	}
}

// handleDebugRequests serves the flight recorder: the most recent
// completed traces, newest first. Query parameters: status (ok|error),
// min_ms (minimum root duration), trace (exact ID), n (limit, default
// 32).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	f := otrace.Filter{Status: r.URL.Query().Get("status"), Trace: r.URL.Query().Get("trace"), Limit: 32}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad min_ms %q", v))
			return
		}
		f.MinDur = time.Duration(ms) * time.Millisecond
	}
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad n %q", v))
			return
		}
		f.Limit = n
	}
	traces := s.recorder.Traces(f)
	writeJSON(w, http.StatusOK, struct {
		Enabled bool         `json:"enabled"`
		Peer    string       `json:"peer"`
		Total   uint64       `json:"total"`
		Evicted uint64       `json:"evicted"`
		Traces  []otrace.Rec `json:"traces"`
	}{true, s.tracer.Peer(), s.recorder.Total(), s.recorder.Evicted(), traces})
}

// admit pushes jobs (atomically) and keeps the queue metrics honest.
func (s *Server) admit(js ...*job) bool {
	if !s.q.tryPush(js...) {
		s.m.touch(s.m.shedQueue.Inc)
		return false
	}
	s.m.touch(func() { s.m.admitted.Add(uint64(len(js))) })
	s.syncQueueGauges()
	return true
}

// syncQueueGauges refreshes the queue-depth gauges (total, per class,
// high-water mark) from the queue's current state.
func (s *Server) syncQueueGauges() {
	total := int64(s.q.depth())
	inter := int64(s.q.depthOf(classInteractive))
	batch := int64(s.q.depthOf(classBatch))
	s.m.touch(func() {
		s.m.queueDepth.Set(total)
		s.m.queueInteractive.Set(inter)
		s.m.queueBatch.Set(batch)
		if total > s.m.queueDepthMax.Value() {
			s.m.queueDepthMax.Set(total)
		}
	})
}

// await delivers one job's outcome to the client.
func (s *Server) await(w http.ResponseWriter, ctx context.Context, j *job) {
	select {
	case out := <-j.done:
		s.writeRunOutcome(w, j.trace, out)
	case <-ctx.Done():
		s.writeCtxEnd(w, ctx.Err())
	}
}

func (s *Server) writeCtxEnd(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "deadline", "run did not finish within the request deadline")
		return
	}
	// The client hung up (or the server is force-stopping): nobody is
	// reading this response, but the connection teardown is still the
	// polite place to stop writing.
	s.m.touch(s.m.clientGone.Inc)
	writeError(w, http.StatusServiceUnavailable, "cancelled", "request cancelled")
}

// writeRunOutcome maps a finished job to its response. RunError kinds
// keep their identity; cancellation that raced past the ctx select
// maps like writeCtxEnd; everything else is a plain structured 500.
func (s *Server) writeRunOutcome(w http.ResponseWriter, trace string, out jobResult) {
	if out.err == nil {
		writeJSON(w, http.StatusOK, runResponse{Trace: trace, Result: out.res})
		return
	}
	if errIsCancel(out.err) {
		s.writeCtxEnd(w, unwrapCtxErr(out.err))
		return
	}
	var re *RunError
	if errors.As(out.err, &re) {
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: out.err.Error(), Kind: re.Kind, Attempts: re.Attempts})
		return
	}
	writeError(w, http.StatusInternalServerError, kindError, out.err.Error())
}

func unwrapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return context.Canceled
}

// sweepRequest is the /v1/sweep body: one config across a trace list.
// "traces" names them explicitly; "set" is shorthand for "all" or
// "sensitive". A sweep is admitted atomically — all jobs or a 429.
type sweepRequest struct {
	Traces       []string        `json:"traces,omitempty"`
	Set          string          `json:"set,omitempty"`
	Instructions uint64          `json:"instructions,omitempty"`
	TimeoutMS    int             `json:"timeout_ms,omitempty"`
	Config       json.RawMessage `json:"config,omitempty"`
	// Class is the admission priority; sweeps default to "batch".
	Class string `json:"class,omitempty"`
}

// sweepRow is one trace's outcome. Exactly one of Result/Error is set:
// a sweep response never presents a partial table as complete — a row
// that failed says so, structurally.
type sweepRow struct {
	Trace    string      `json:"trace"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
	Kind     string      `json:"kind,omitempty"`
	Attempts int         `json:"attempts,omitempty"`
}

type sweepResponse struct {
	Rows   []sweepRow `json:"rows"`
	Failed int        `json:"failed"`
}

func (s *Server) sweepTraces(req sweepRequest) ([]string, error) {
	all := workload.Suite()
	switch {
	case len(req.Traces) > 0 && req.Set != "":
		return nil, errors.New(`"traces" and "set" are mutually exclusive`)
	case len(req.Traces) > 0:
		for _, tr := range req.Traces {
			if _, ok := workload.ByName(all, tr); !ok {
				return nil, fmt.Errorf("unknown trace %q", tr)
			}
		}
		return req.Traces, nil
	case req.Set == "all":
		names := make([]string, len(all))
		for i, p := range all {
			names[i] = p.Name
		}
		return names, nil
	case req.Set == "sensitive" || req.Set == "":
		sens := workload.Sensitive(all)
		names := make([]string, len(sens))
		for i, p := range sens {
			names[i] = p.Name
		}
		return names, nil
	default:
		return nil, fmt.Errorf(`unknown set %q (want "all" or "sensitive")`, req.Set)
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.m.touch(s.m.shedDrain.Inc)
		writeShed(w, http.StatusServiceUnavailable, "draining",
			"draining: not accepting new runs", 5*time.Second)
		return
	}
	var req sweepRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request body: %v", err))
		return
	}
	traces, err := s.sweepTraces(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	cfg, err := s.buildConfig(req.Config, req.Instructions)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	cls, err := parseClass(req.Class, classBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	root := s.startSpan(r, "serve.sweep")
	defer root.End()
	defer s.observeRequest(root)()
	root.SetAttrInt("rows", int64(len(traces)))
	root.SetAttr("class", cls.String())
	if !isForwarded(r) {
		qsp := root.Child("serve.quota", otrace.KindInternal)
		ok, retry := s.quota.take(clientID(r), len(traces))
		if !ok {
			qsp.Fail(errors.New("over quota"))
			qsp.End()
			root.Fail(errors.New("shed: quota"))
			s.m.touch(s.m.shedQuota.Inc)
			writeShed(w, http.StatusTooManyRequests, "quota",
				fmt.Sprintf("client over its request quota (sweep of %d)", len(traces)), retry)
			return
		}
		qsp.End()
	}
	s.markServedBy(w)
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	if s.cluster != nil && !isForwarded(r) {
		s.clusterSweep(ctx, w, r, req, traces, cfg, cls, root)
		return
	}
	jobs := make([]*job, len(traces))
	for i, tr := range traces {
		jobs[i] = &job{ctx: ctx, trace: tr, cfg: cfg, class: cls, done: make(chan jobResult, 1),
			span: root, qspan: root.Child("queue.wait", otrace.KindInternal)}
		jobs[i].qspan.SetAttr("workload", tr)
	}
	if !s.admit(jobs...) {
		for _, j := range jobs {
			j.qspan.End()
		}
		root.Fail(errors.New("shed: queue full"))
		writeShed(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("admission queue cannot fit a sweep of %d (capacity %d, %d queued)",
				len(jobs), s.cfg.QueueDepth, s.q.depth()), time.Second)
		return
	}
	resp := sweepResponse{Rows: make([]sweepRow, len(jobs))}
	for i, j := range jobs {
		select {
		case out := <-j.done:
			resp.Rows[i] = runOutcomeRow(j.trace, out)
			if resp.Rows[i].Result == nil {
				resp.Failed++
			}
		case <-ctx.Done():
			s.writeCtxEnd(w, ctx.Err())
			return
		}
	}
	status := http.StatusOK
	if resp.Failed > 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}

// runOutcomeRow maps one finished job onto its sweep row: exactly one
// of Result/Error set, RunError kinds preserved.
func runOutcomeRow(trace string, out jobResult) sweepRow {
	row := sweepRow{Trace: trace}
	if out.err == nil {
		res := out.res
		row.Result = &res
		return row
	}
	row.Error = out.err.Error()
	row.Kind = kindError
	if errIsCancel(out.err) {
		row.Kind = "cancelled"
	}
	var re *RunError
	if errors.As(out.err, &re) {
		row.Kind = re.Kind
		row.Attempts = re.Attempts
	}
	return row
}
