package serve

// Service metrics, kept in an obs.SyncRegistry so they render with the
// same deterministic snapshot/format machinery as the simulator's own
// counters while tolerating every handler and dispatcher touching them
// at once. The process-global expvar endpoint ("serve" under
// /debug/vars) is registered once and indirects through the active
// server, mirroring the obs package's pattern — tests start many
// servers in one process and expvar.Publish panics on duplicates.

import (
	"expvar"
	"sync"

	"basevictim/internal/obs"
)

type metrics struct {
	reg *obs.SyncRegistry

	admitted     *obs.Counter // requests accepted into the queue
	completed    *obs.Counter // runs delivered to a client (ok or error)
	shedQueue    *obs.Counter // 429: queue full
	shedQuota    *obs.Counter // 429: client over its token bucket
	shedDrain    *obs.Counter // 503: refused while draining
	clientGone   *obs.Counter // request context ended before delivery
	runsExecuted *obs.Counter // runner invocations (cache misses)
	retries      *obs.Counter // attempts retried after a retryable fault
	starts       *obs.Counter // worker processes started
	restarts     *obs.Counter // worker processes that died without a result
	hungKills    *obs.Counter // workers killed by the heartbeat watchdog
	chaosKills   *obs.Counter // workers killed by injected chaos
	quarantined  *obs.Counter // keys poisoned after MaxAttempts failures

	traceSpans   *obs.Counter // otrace spans started on this node
	traceDropped *obs.Counter // spans lost to the per-trace cap or late ends
	traceEvicted *obs.Counter // flight-recorder traces overwritten when full
	tracePropErr *obs.Counter // malformed X-BV-Trace/X-BV-Parent headers

	queueDepth       *obs.Gauge // current queued jobs (all classes)
	queueInteractive *obs.Gauge // queued interactive jobs
	queueBatch       *obs.Gauge // queued batch jobs
	queueDepthMax    *obs.Gauge // high-water mark of the queue
	inflight         *obs.Gauge // jobs currently simulating
	draining         *obs.Gauge // 1 once drain has begun
	quotaClients     *obs.Gauge // live per-client quota buckets

	attempts  *obs.Histogram // attempts needed per successful pool run
	requestMS *obs.Histogram // /v1/run wall latency, with trace-ID exemplars
}

func newMetrics() *metrics {
	reg := obs.NewSyncRegistry()
	return &metrics{
		reg:              reg,
		admitted:         reg.Counter("serve.admitted"),
		completed:        reg.Counter("serve.completed"),
		shedQueue:        reg.Counter("serve.shed_queue_full"),
		shedQuota:        reg.Counter("serve.shed_quota"),
		shedDrain:        reg.Counter("serve.shed_draining"),
		clientGone:       reg.Counter("serve.client_disconnects"),
		runsExecuted:     reg.Counter("serve.runs_executed"),
		retries:          reg.Counter("serve.worker_retries"),
		starts:           reg.Counter("serve.worker_starts"),
		restarts:         reg.Counter("serve.worker_restarts"),
		hungKills:        reg.Counter("serve.worker_hung_kills"),
		chaosKills:       reg.Counter("serve.worker_chaos_kills"),
		quarantined:      reg.Counter("serve.quarantined"),
		traceSpans:       reg.Counter("trace.spans_started"),
		traceDropped:     reg.Counter("trace.spans_dropped"),
		traceEvicted:     reg.Counter("trace.recorder_evictions"),
		tracePropErr:     reg.Counter("trace.propagation_errors"),
		queueDepth:       reg.Gauge("serve.queue_depth"),
		queueInteractive: reg.Gauge("serve.queue_depth_interactive"),
		queueBatch:       reg.Gauge("serve.queue_depth_batch"),
		queueDepthMax:    reg.Gauge("serve.queue_depth_max"),
		inflight:         reg.Gauge("serve.inflight"),
		draining:         reg.Gauge("serve.draining"),
		quotaClients:     reg.Gauge("serve.quota_clients"),
		attempts:         reg.Histogram("serve.run_attempts", []uint64{1, 2, 3, 4, 8}),
		requestMS:        reg.Histogram("serve.request_ms", []uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}),
	}
}

// snapshot returns a consistent copy of the registry state.
func (m *metrics) snapshot() obs.Snapshot {
	return m.reg.Snapshot()
}

// touch runs f under the registry lock. All counter/gauge updates go
// through here: the handles are obs types, unsynchronized by design,
// and the SyncRegistry owns the one lock that makes them shareable
// between every handler and dispatcher.
func (m *metrics) touch(f func()) {
	m.reg.Touch(f)
}

var (
	expvarOnce sync.Once
	activeMu   sync.Mutex
	activeSrv  *Server
)

func setActive(s *Server) {
	activeMu.Lock()
	activeSrv = s
	activeMu.Unlock()
}

func publishExpvar() {
	expvar.Publish("serve", expvar.Func(func() any {
		activeMu.Lock()
		s := activeSrv
		activeMu.Unlock()
		if s == nil {
			return nil
		}
		return s.status()
	}))
}
