package serve

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// metricsRegistry tracks per-endpoint request counts and latency
// histograms for /metrics. It is deliberately tiny — the module has no
// Prometheus client dependency, and the text format is a stable
// contract.
type metricsRegistry struct {
	mu       sync.Mutex
	requests map[requestKey]uint64
	latency  map[string]*stats.ExpHistogram
}

type requestKey struct {
	endpoint string
	code     int
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests: make(map[requestKey]uint64),
		latency:  make(map[string]*stats.ExpHistogram),
	}
}

// observe records one served request.
func (m *metricsRegistry) observe(endpoint string, code int, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{endpoint, code}]++
	h, ok := m.latency[endpoint]
	if !ok {
		// 100 µs up to ~1.7 min in ×2 steps: simulation requests span
		// sub-millisecond cache hits to multi-second cold sweeps.
		h = stats.NewExpHistogram(100e-6, 2, 20)
		m.latency[endpoint] = h
	}
	h.Observe(dur.Seconds())
}

type requestCount struct {
	requestKey
	n uint64
}

type endpointLatency struct {
	endpoint string
	hist     *stats.ExpHistogram
}

// snapshot copies the registry into v under one lock, so request
// counts and latency counts agree, sorted for a deterministic page.
func (m *metricsRegistry) snapshot(v *metricsView) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, n := range m.requests {
		v.requests = append(v.requests, requestCount{k, n})
	}
	for ep, h := range m.latency {
		v.latency = append(v.latency, endpointLatency{ep, h.Clone()})
	}
	sort.Slice(v.requests, func(i, j int) bool {
		a, b := v.requests[i], v.requests[j]
		if a.endpoint != b.endpoint {
			return a.endpoint < b.endpoint
		}
		return a.code < b.code
	})
	sort.Slice(v.latency, func(i, j int) bool { return v.latency[i].endpoint < v.latency[j].endpoint })
}

// metricsView is one read of everything /metrics exposes, taken before
// any family is written.
type metricsView struct {
	queued, inflight, draining int64
	st                         sweep.Stats
	agg                        []sweep.ClassAgg
	reqtrace                   bool
	traces                     int
	spans, dropped             uint64
	tenants                    []tenant.TenantUsage
	gauges                     []tenantGauge
	requests                   []requestCount
	latency                    []endpointLatency
}

func (s *Server) metricsView() *metricsView {
	queued, inflight := s.adm.gauges()
	v := &metricsView{queued: int64(queued), inflight: int64(inflight), st: s.eng.Stats(), agg: s.eng.TraceAgg(),
		reqtrace: s.rt.Enabled(), tenants: s.tenants.All(), gauges: s.adm.tenantGauges()}
	if s.draining() {
		v.draining = 1
	}
	v.traces, v.spans, v.dropped = s.rt.Stats()
	s.met.snapshot(v)
	return v
}

// renderMetrics writes the full exposition to any writer — the same
// body /metrics serves, reused by the cluster's metrics federation as
// the coordinator's own contribution.
func (s *Server) renderMetrics(w io.Writer) {
	stats.WriteFamilies(w, MetricFamilies, s.metricsView())
	if s.extraMet != nil {
		s.extraMet(w)
	}
}

func hasReqtrace(v *metricsView) bool { return v.reqtrace }

// MetricFamilies declares every family a server's /metrics page
// carries, in page order, one row per family. Tenants appear in
// registration order and admission gauges by tenant ID.
var MetricFamilies = []stats.Family[*metricsView]{
	{Name: "ringsim_build_info", Type: stats.TypeGauge, Help: "Build identity of the running binary (constant 1).", Write: func(e *stats.Expo, _ *metricsView) {
		// Constant 1 with the identity as labels, the standard pattern
		// for joining build identity onto any other series.
		i := buildinfo.Read()
		rev := i.Revision
		if i.Modified {
			rev += "+dirty"
		}
		e.Int(1, "version", i.Version, "goversion", i.GoVersion, "revision", rev)
	}},
	{Name: "ringsim_serve_queue_depth", Type: stats.TypeGauge, Help: "Requests waiting for admission.", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.queued) }},
	{Name: "ringsim_serve_in_flight", Type: stats.TypeGauge, Help: "Requests holding execution slots.", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.inflight) }},
	{Name: "ringsim_serve_draining", Type: stats.TypeGauge, Help: "Whether the server is draining.", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.draining) }},
	{Name: "ringsim_engine_jobs_total", Type: stats.TypeCounter, Help: "Engine job outcomes over the server lifetime.", Write: func(e *stats.Expo, v *metricsView) {
		e.Int(int64(v.st.Queued), "state", "queued")
		e.Int(int64(v.st.Done), "state", "done")
		e.Int(int64(v.st.Computed), "state", "computed")
		e.Int(int64(v.st.CacheHits), "state", "cache_hits")
		e.Int(int64(v.st.DiskHits), "state", "disk_hits")
		e.Int(int64(v.st.Errors), "state", "errors")
	}},
	{Name: "ringsim_engine_running_jobs", Type: stats.TypeGauge, Help: "Jobs executing in the engine right now.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.Running)) }},
	{Name: "ringsim_engine_cache_hit_ratio", Type: stats.TypeGauge, Help: "Lifetime fraction of jobs served from cache.", Write: func(e *stats.Expo, v *metricsView) { e.Float(v.st.HitRate()) }},
	{Name: "ringsim_engine_exec_seconds_total", Type: stats.TypeCounter, Help: "Wall clock spent executing jobs, summed across workers.", Write: func(e *stats.Expo, v *metricsView) { e.Float(v.st.ExecWall.Seconds()) }},
	{Name: "ringsim_engine_simulated_ns_total", Type: stats.TypeCounter, Help: "Simulated nanoseconds produced by computed jobs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.st.SimulatedPS / 1000) }},
	{Name: "ringsim_engine_events_fired_total", Type: stats.TypeCounter, Help: "Kernel events dispatched by computed jobs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.EventsFired)) }},
	{Name: "ringsim_engine_events_per_second", Type: stats.TypeGauge, Help: "Event dispatch rate over execution wall clock.", Write: func(e *stats.Expo, v *metricsView) { e.Float(v.st.EventsPerSec) }},
	{Name: "ringsim_engine_events_per_job", Type: stats.TypeGauge, Help: "Mean kernel events per computed job.", Write: func(e *stats.Expo, v *metricsView) { e.Float(v.st.MeanJobEvents) }},
	{Name: "ringsim_engine_event_slab_max", Type: stats.TypeGauge, Help: "Largest event-record pool any job's kernel allocated.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.EventSlabMax)) }},
	{Name: "ringsim_sim_parallel_runs_total", Type: stats.TypeCounter, Help: "Computed jobs executed on the partitioned parallel kernel.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.ParallelRuns)) }},
	{Name: "ringsim_sim_parallel_fallbacks_total", Type: stats.TypeCounter, Help: "Jobs where a parallel request fell back to the sequential kernel.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.ParallelFallbacks)) }},
	{Name: "ringsim_sim_parallel_windows_total", Type: stats.TypeCounter, Help: "Conservative barrier windows advanced across parallel runs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.ParallelWindows)) }},
	{Name: "ringsim_sim_parallel_cross_events_total", Type: stats.TypeCounter, Help: "Cross-partition events exchanged across parallel runs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.ParallelCrossEvents)) }},
	{Name: "ringsim_sim_parallel_cross_windows_total", Type: stats.TypeCounter, Help: "Barrier windows that delivered at least one cross-partition event, summed across parallel runs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.ParallelCrossWindows)) }},
	{Name: "ringsim_sim_parallel_window_width_ps", Type: stats.TypeGauge, Help: "Narrowest barrier-window width any parallel run used, in simulated picoseconds (the boundary-link lookahead for segmented-interconnect runs).", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.st.ParallelWindowPS) }},
	{Name: "ringsim_sim_parallel_barrier_stall_ns_total", Type: stats.TypeCounter, Help: "Wall clock partitions spent waiting at window barriers, summed across partitions and runs.", Write: func(e *stats.Expo, v *metricsView) { e.Int(v.st.ParallelBarrierStallNS) }},
	{Name: "ringsim_obs_spans_total", Type: stats.TypeCounter, Help: "Coherence-transaction spans observed by computed jobs, by class.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.SpansObserved)) }},
	{Name: "ringsim_obs_spans_sampled_total", Type: stats.TypeCounter, Help: "Spans captured as full trace records.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.SpansSampled)) }},
	{Name: "ringsim_obs_spans_dropped_total", Type: stats.TypeCounter, Help: "Sampled spans overwritten in the trace ring buffers before completing.", Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.st.SpansDropped)) }},
	{Name: "ringsim_obs_span_latency_seconds", Type: stats.TypeHistogram, Help: "Coherence-transaction latency by class, across computed jobs.",
		When: func(v *metricsView) bool { return len(v.agg) > 0 },
		Write: func(e *stats.Expo, v *metricsView) {
			for _, a := range v.agg {
				e.Hist(a.Latency, 1e9, "class", a.Class) // recorded in ns, exposed in seconds
			}
		}},
	{Name: "ringsim_reqtrace_traces", Type: stats.TypeGauge, Help: "Request traces retained in the in-process store.", When: hasReqtrace, Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.traces)) }},
	{Name: "ringsim_reqtrace_spans_total", Type: stats.TypeCounter, Help: "Request spans recorded since start.", When: hasReqtrace, Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.spans)) }},
	{Name: "ringsim_reqtrace_spans_dropped_total", Type: stats.TypeCounter, Help: "Request spans evicted from the bounded store.", When: hasReqtrace, Write: func(e *stats.Expo, v *metricsView) { e.Int(int64(v.dropped)) }},
	{Name: "ringsim_tenant_jobs_total", Type: stats.TypeCounter, Help: "Jobs served per tenant by outcome.", Write: func(e *stats.Expo, v *metricsView) {
		for _, tu := range v.tenants {
			e.Int(int64(tu.Usage.Computed), "tenant", tu.ID, "state", "computed")
			e.Int(int64(tu.Usage.CacheHits), "tenant", tu.ID, "state", "cache_hits")
			e.Int(int64(tu.Usage.DiskHits), "tenant", tu.ID, "state", "disk_hits")
			e.Int(int64(tu.Usage.Errors), "tenant", tu.ID, "state", "errors")
		}
	}},
	{Name: "ringsim_tenant_rejected_total", Type: stats.TypeCounter, Help: "Requests refused per tenant, by which limit refused them.", Write: func(e *stats.Expo, v *metricsView) {
		for _, tu := range v.tenants {
			e.Int(int64(tu.Usage.RateLimited), "tenant", tu.ID, "reason", "rate")
			e.Int(int64(tu.Usage.Rejected), "tenant", tu.ID, "reason", "admission")
		}
	}},
	{Name: "ringsim_tenant_simulated_ns_total", Type: stats.TypeCounter, Help: "Simulated nanoseconds computed on each tenant's behalf.", Write: func(e *stats.Expo, v *metricsView) {
		for _, tu := range v.tenants {
			e.Int(tu.Usage.SimulatedPS/1000, "tenant", tu.ID)
		}
	}},
	{Name: "ringsim_tenant_request_seconds_total", Type: stats.TypeCounter, Help: "Wall clock spent serving each tenant's admitted requests.", Write: func(e *stats.Expo, v *metricsView) {
		for _, tu := range v.tenants {
			e.Float(time.Duration(tu.Usage.WallNS).Seconds(), "tenant", tu.ID)
		}
	}},
	{Name: "ringsim_tenant_queue_depth", Type: stats.TypeGauge, Help: "Requests waiting in each tenant's admission flow.", Write: func(e *stats.Expo, v *metricsView) {
		for _, g := range v.gauges {
			e.Int(int64(g.queued), "tenant", g.id)
		}
	}},
	{Name: "ringsim_tenant_in_flight", Type: stats.TypeGauge, Help: "Requests holding execution slots per tenant.", Write: func(e *stats.Expo, v *metricsView) {
		for _, g := range v.gauges {
			e.Int(int64(g.inflight), "tenant", g.id)
		}
	}},
	{Name: "ringsim_serve_requests_total", Type: stats.TypeCounter, Help: "Served requests by endpoint and status code.", Write: func(e *stats.Expo, v *metricsView) {
		for _, r := range v.requests {
			e.Int(int64(r.n), "endpoint", r.endpoint, "code", strconv.Itoa(r.code))
		}
	}},
	{Name: "ringsim_serve_request_seconds", Type: stats.TypeHistogram, Help: "Request latency by endpoint.", Write: func(e *stats.Expo, v *metricsView) {
		for _, l := range v.latency {
			e.Hist(l.hist, 1, "endpoint", l.endpoint)
		}
	}},
}
