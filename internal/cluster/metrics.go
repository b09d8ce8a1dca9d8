package cluster

import (
	"io"
	"maps"

	"repro/internal/stats"
)

// clusterView is one read of the coordinator's dispatch accounting and
// membership (the /v1/cluster/status document) plus per-worker
// completions, taken before any family is written.
type clusterView struct {
	StatusDoc
	done map[string]uint64
}

// WriteMetrics renders the cluster plane's Prometheus series. It
// satisfies serve.Options.ExtraMetrics, so the coordinator's /metrics
// page carries the fleet view next to the engine and serving series.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	// Completions are read first: a dispatch is counted before it
	// completes, so no worker shows more done than was dispatched.
	c.mu.Lock()
	v := &clusterView{done: maps.Clone(c.perWorkerDone)}
	c.mu.Unlock()
	v.StatusDoc = c.Status()
	stats.WriteFamilies(w, clusterFamilies, v)
}

func hasMembers(v *clusterView) bool { return len(v.Workers) > 0 }

// clusterFamilies declares the coordinator's ringsim_cluster_* series,
// one row per family.
//
// Accounting invariant: every dispatch decision appears exactly once in
// ringsim_cluster_dispatches_total (outcome home|forward|steal), every
// failed attempt in ringsim_cluster_exec_failures_total, and every
// submission the fleet could not take in
// ringsim_cluster_no_worker_errors_total — so forwards and steals are
// fully accounted for across a run.
var clusterFamilies = []stats.Family[*clusterView]{
	{Name: "ringsim_cluster_workers", Type: stats.TypeGauge, Help: "Registered workers by liveness state.", Write: func(e *stats.Expo, v *clusterView) {
		e.Int(int64(v.Live), "state", "live")
		e.Int(int64(v.Down), "state", "down")
	}},
	{Name: "ringsim_cluster_dispatches_total", Type: stats.TypeCounter, Help: "Job dispatches by outcome: home (consistent-hash owner), forward (overflow to a less-loaded worker), steal (re-dispatch after a worker loss or timeout).", Write: func(e *stats.Expo, v *clusterView) {
		e.Int(int64(v.Dispatches-v.Forwards-v.Steals), "outcome", "home")
		e.Int(int64(v.Forwards), "outcome", "forward")
		e.Int(int64(v.Steals), "outcome", "steal")
	}},
	{Name: "ringsim_cluster_forwards_total", Type: stats.TypeCounter, Help: "Jobs placed on a non-home worker because the home was saturated.", Write: func(e *stats.Expo, v *clusterView) { e.Int(int64(v.Forwards)) }},
	{Name: "ringsim_cluster_steals_total", Type: stats.TypeCounter, Help: "Jobs re-dispatched to another worker after a worker loss or timeout.", Write: func(e *stats.Expo, v *clusterView) { e.Int(int64(v.Steals)) }},
	{Name: "ringsim_cluster_exec_failures_total", Type: stats.TypeCounter, Help: "Dispatch attempts that failed with worker trouble (each is followed by a steal or a terminal error).", Write: func(e *stats.Expo, v *clusterView) { e.Int(int64(v.ExecFailures)) }},
	{Name: "ringsim_cluster_no_worker_errors_total", Type: stats.TypeCounter, Help: "Submissions rejected because no live worker could take them.", Write: func(e *stats.Expo, v *clusterView) { e.Int(int64(v.NoWorker)) }},
	{Name: "ringsim_cluster_peer_fetches_total", Type: stats.TypeCounter, Help: "Results fetched from a peer's cache tier and adopted locally.", Write: func(e *stats.Expo, v *clusterView) { e.Int(int64(v.PeerFetches)) }},
	{Name: "ringsim_cluster_worker_inflight", Type: stats.TypeGauge, Help: "Coordinator-side dispatches currently outstanding per worker.", When: hasMembers, Write: func(e *stats.Expo, v *clusterView) {
		for _, m := range v.Workers {
			e.Int(int64(m.Outstanding), "worker", m.ID)
		}
	}},
	{Name: "ringsim_cluster_heartbeat_age_seconds", Type: stats.TypeGauge, Help: "Seconds since each worker's last heartbeat or join.", When: hasMembers, Write: func(e *stats.Expo, v *clusterView) {
		for _, m := range v.Workers {
			e.Float(m.HeartbeatAge.Seconds(), "worker", m.ID)
		}
	}},
	{Name: "ringsim_cluster_worker_done_total", Type: stats.TypeCounter, Help: "Dispatches each worker completed for this coordinator.", When: hasMembers, Write: func(e *stats.Expo, v *clusterView) {
		for _, m := range v.Workers {
			e.Int(int64(v.done[m.ID]), "worker", m.ID)
		}
	}},
	{Name: "ringsim_cluster_worker_spans_total", Type: stats.TypeCounter, Help: "Coherence-transaction spans each worker's engine observed (from heartbeats) — worker identity over the obs aggregates.", When: hasMembers, Write: func(e *stats.Expo, v *clusterView) {
		for _, m := range v.Workers {
			e.Int(int64(m.Spans), "worker", m.ID)
		}
	}},
}

// fleetClass is one transaction class's fleet-merged span aggregate.
type fleetClass struct {
	class string
	spans uint64
	hist  *stats.ExpHistogram
}

// fleetFamilies declares the fleet-merged series that close the
// coordinator's federated page; the view is sorted by class. Both are
// absent when no worker contributed an aggregate.
var fleetFamilies = []stats.Family[[]fleetClass]{
	{Name: "ringsim_fleet_spans_total", Type: stats.TypeCounter, Help: "Coherence-transaction spans observed across every live worker's engine, merged by the coordinator.", When: hasFleet, Write: func(e *stats.Expo, v []fleetClass) {
		for _, fc := range v {
			e.Int(int64(fc.spans), "class", fc.class)
		}
	}},
	{Name: "ringsim_fleet_span_latency_ns", Type: stats.TypeHistogram, Help: "Fleet-merged coherence-span latency by transaction class (simulated nanoseconds), folded from worker obsagg snapshots via histogram merge.", When: hasFleet, Write: func(e *stats.Expo, v []fleetClass) {
		for _, fc := range v {
			e.Hist(fc.hist, 1, "class", fc.class)
		}
	}},
}

func hasFleet(v []fleetClass) bool { return len(v) > 0 }
