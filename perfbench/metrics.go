package main

// metricDef describes one reported metric. End-to-end metrics come
// from untraced runs; per-layer metrics from the traced run, where
// Moves and On name the end-to-end metric and the workload a change to
// that layer should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string
	On     string
}

const (
	wlSuite   = "paper-suite"
	wlSharded = "sharded-mp3d32"
	wlServe   = "serve-mix"
	// onTraced marks the accounting metrics, which describe whichever
	// workload the traced run is given.
	onTraced = "traced"
)

// endToEnd lists the metrics every untraced run reports, on every
// workload. The definition of each on each workload is in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "sim_refs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

func layer(name, unit, better, moves, on string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Moves: moves, On: on}
}

// perLayer lists the metrics every traced run reports, each measured on
// the workload its layer belongs to (On). BENCHMARK.json cannot carry
// Moves and On: its per-layer entries take only name, unit and better.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layer("workload.refs", "count", "higher", "sim_refs_per_s", wlSuite),
		layer("workload.ns_per_ref", "ns", "lower", "sim_refs_per_s", wlSuite),
		layer("workload.allocs_per_ref", "count", "lower", "sim_refs_per_s", wlSuite),
		layer("workload.table2_err_pct", "%", "lower", "wall_s", wlSuite),
		layer("cache.ns_per_access", "ns", "lower", "wall_s", wlSuite),
		layer("cache.hit_ratio", "ratio", "higher", "wall_s", wlSuite),
		layer("core.setup_ms_per_sim", "ms", "lower", "setup_s", wlSuite),
		layer("core.allocs_per_ref", "count", "lower", "wall_s", wlSuite),
		layer("core.alloc_bytes_per_ref", "B", "lower", "wall_s", wlSuite),
		layer("core.unattributed_frac", "ratio", "lower", "wall_s", onTraced),
	}
	for _, eng := range engineLayers {
		on := wlSuite
		if eng == "segdir" {
			on = wlSharded
		}
		defs = append(defs,
			layer(eng+".misses", "count", "higher", "wall_s", on),
			layer(eng+".upgrades", "count", "higher", "wall_s", on),
			layer(eng+".self_ns_per_miss", "ns", "lower", "wall_s", on),
			layer(eng+".allocs_per_miss", "count", "lower", "wall_s", on),
		)
	}
	defs = append(defs,
		layer("ring.sends.probe_even", "count", "higher", "wall_s", wlSuite),
		layer("ring.sends.probe_odd", "count", "higher", "wall_s", wlSuite),
		layer("ring.sends.block", "count", "higher", "wall_s", wlSuite),
		layer("ring.self_ns_per_send", "ns", "lower", "wall_s", wlSuite),
		layer("ring.slot_util", "ratio", "higher", "wall_s", wlSuite),
		layer("bus.tenures", "count", "higher", "wall_s", wlSuite),
		layer("bus.self_ns_per_tenure", "ns", "lower", "wall_s", wlSuite),
		layer("sim.events", "count", "higher", "sim_refs_per_s", wlSuite),
		layer("sim.self_ns_per_event", "ns", "lower", "sim_refs_per_s", wlSuite),
		layer("sim.event_slab_max", "count", "lower", "sim_refs_per_s", wlSuite),
		layer("par.windows", "count", "lower", "wall_s", wlSharded),
		layer("par.cross_events_per_window", "count", "higher", "wall_s", wlSharded),
		layer("par.barrier_stall_frac", "ratio", "lower", "wall_s", wlSharded),
		layer("par.ns_per_window", "ns", "lower", "wall_s", wlSharded),
		layer("par.seq_wall_s", "s", "lower", "wall_s", wlSharded),
		layer("par.speedup", "ratio", "higher", "wall_s", wlSharded),
		layer("analytic.ns_per_eval", "ns", "lower", "wall_s", wlSuite),
		layer("analytic.model_err_pct", "%", "lower", "wall_s", wlSuite),
		layer("sweep.hash_ns", "ns", "lower", "p50_ms", wlServe),
		layer("sweep.hit_ns", "ns", "lower", "p50_ms", wlServe),
		layer("sweep.compute_ms_per_job", "ms", "lower", "p99_ms", wlServe),
		layer("sweep.hit_ratio", "ratio", "higher", "req_per_s", wlServe),
		layer("serve.handler_us_per_hit", "us", "lower", "req_per_s", wlServe),
		layer("serve.metrics_render_ms", "ms", "lower", "req_per_s", wlServe),
		layer("serve.admit_wait_ms", "ms", "lower", "p50_ms", wlServe),
		layer("serve.rejected", "count", "lower", "req_per_s", wlServe),
		layer("reqtrace.us_per_request", "us", "lower", "p50_ms", wlServe),
		layer("trace.overhead_frac", "ratio", "lower", "wall_s", onTraced),
	)
	return defs
}()

// engineLayers are the coherence engines, named by the layer the
// profile attribution assigns their code to.
var engineLayers = []string{"snoop", "directory", "scilist", "bussnoop", "hier", "segdir"}

// metricsFor returns the metric set a run reports.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
