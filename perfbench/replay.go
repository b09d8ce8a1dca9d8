package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The replay reaches the simulator's public seams: it rebuilds a
// workload's simulation points through core.NewSystem, counts what
// crosses workload.Source, Ring.OnMessage and Bus.OnTenure, replays the
// generator and the cache standalone, and profiles each run so the
// engines and the kernel, which have no seam, get their self time from
// the profiles.

// simPoint is one simulation to replay.
type simPoint struct {
	cfg  core.Config
	wcfg workload.Config
}

// engineLayer names the layer a point's coherence engine belongs to.
func (p simPoint) engineLayer() string {
	switch p.cfg.Protocol {
	case core.SnoopRing:
		return "snoop"
	case core.DirectoryRing:
		if p.cfg.Ring.Segments != 0 {
			return "segdir"
		}
		return "directory"
	case core.SCIRing:
		return "scilist"
	case core.SnoopBus:
		return "bussnoop"
	}
	return "hier"
}

// jobPoint is the simulation sweep's default executor runs for j.
func jobPoint(j sweep.Job) (simPoint, error) {
	j = j.Normalize()
	cfg, err := j.SystemConfig()
	if err != nil {
		return simPoint{}, err
	}
	prof, ok := workload.ProfileFor(j.Benchmark, j.CPUs)
	if !ok {
		return simPoint{}, fmt.Errorf("no workload profile %s/%d", j.Benchmark, j.CPUs)
	}
	seed := j.RNGSeed()
	cfg.Seed = seed
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = 600
	}
	return simPoint{cfg, workload.Config{Profile: prof, DataRefsPerCPU: j.DataRefsPerCPU + cfg.WarmupDataRefs, Seed: seed}}, nil
}

// countingSource counts the references the simulation pulls.
type countingSource struct {
	workload.Source
	n uint64
}

func (s *countingSource) Next(cpu int) (trace.Ref, bool) {
	r, ok := s.Source.Next(cpu)
	if ok {
		s.n++
	}
	return r, ok
}

// replay accumulates the per-layer counts and costs of replayed points.
type replay struct {
	refs, refAllocs float64
	refNS           float64

	accesses, hits float64
	accessNS       float64

	sims     int
	setupNS  float64
	simRefs  float64
	simObjs  float64
	simBytes float64

	misses, upgrades map[string]float64

	sends      [ring.NumSlotClasses]float64
	ringNS     float64
	ringUtil   []float64
	tenures    float64
	busNS      float64
	events     float64
	simNS      float64
	slabMax    int
	evalNS     float64
	evals      float64
	cost       *layerCost
	table2Errs []float64

	// artifacts are the replayed runs' canonical snapshots, in order.
	artifacts [][]byte
}

func newReplay() *replay {
	return &replay{misses: map[string]float64{}, upgrades: map[string]float64{}, cost: newLayerCost()}
}

func mallocs() (objs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs), float64(ms.TotalAlloc)
}

// minProfiled is how long each replayed machine runs under the profile,
// repeating its simulation as needed, so that even short points give
// the profiles a few hundred samples.
const minProfiled = 250 * time.Millisecond

// repeatFor calls fn until it has run for at least d, and returns the
// number of calls.
func repeatFor(d time.Duration, fn func()) float64 {
	t0 := time.Now()
	n := 0
	for ; n == 0 || time.Since(t0) < d; n++ {
		fn()
	}
	return float64(n)
}

// point replays one simulation point; withModel also times the
// analytic model calibrated from its result. Counts are one pass's;
// times and allocations are averaged over the repetitions.
func (rp *replay) point(p simPoint, withModel bool) error {
	// The generator alone.
	var n float64
	a0, _ := mallocs()
	t0 := time.Now()
	reps := repeatFor(minProfiled/5, func() {
		gen := workload.NewGenerator(p.wcfg)
		n = 0
		for cpu := 0; cpu < gen.NumCPUs(); cpu++ {
			for {
				if _, ok := gen.Next(cpu); !ok {
					break
				}
				n++
			}
		}
	})
	rp.refNS += float64(time.Since(t0).Nanoseconds()) / reps
	a1, _ := mallocs()
	rp.refs += n
	rp.refAllocs += (a1 - a0) / reps

	// The cache alone, over each CPU's data stream.
	gen := workload.NewGenerator(p.wcfg)
	streams := make([][]trace.Ref, gen.NumCPUs())
	for cpu := range streams {
		for {
			r, ok := gen.Next(cpu)
			if !ok {
				break
			}
			if r.Op != coherence.Ifetch {
				streams[cpu] = append(streams[cpu], r)
			}
		}
	}
	var hits, accesses, accessNS float64
	reps = repeatFor(minProfiled/5, func() {
		caches := make([]*cache.Cache, len(streams))
		for i := range caches {
			caches[i] = cache.New(p.cfg.Cache)
		}
		hits, accesses = 0, 0
		t0 := time.Now()
		for cpu, refs := range streams {
			c := caches[cpu]
			for _, r := range refs {
				switch c.Lookup(r.Addr, r.Op == coherence.Store) {
				case cache.Hit:
					hits++
				case cache.MissRead:
					c.Fill(c.BlockAddr(r.Addr), coherence.ReadShared)
				default:
					c.Fill(c.BlockAddr(r.Addr), coherence.WriteExclusive)
				}
			}
			accesses += float64(len(refs))
		}
		accessNS += float64(time.Since(t0).Nanoseconds())
	})
	rp.hits += hits
	rp.accesses += accesses
	rp.accessNS += accessNS / reps

	// The machine, through its seams.
	var (
		m               *core.Metrics
		sends           [ring.NumSlotClasses]float64
		tenures         float64
		hasRing, hasBus bool
		pulled          uint64
		setupNS         float64
		objs, bytes     float64
	)
	cost, err := profiled(func() {
		reps = repeatFor(minProfiled, func() {
			sends, tenures = [ring.NumSlotClasses]float64{}, 0
			src := &countingSource{Source: workload.NewGenerator(p.wcfg)}
			t0 := time.Now()
			sys := core.NewSystem(p.cfg, src)
			setupNS += float64(time.Since(t0).Nanoseconds())
			if r := sys.Ring(); r != nil {
				hasRing = true
				r.OnMessage = func(class ring.SlotClass, _, _ sim.Time) { sends[class]++ }
			}
			if b := sys.Bus(); b != nil {
				hasBus = true
				b.OnTenure = func(bus.TenureKind, sim.Time, sim.Time) { tenures++ }
			}
			o0, b0 := mallocs()
			m = sys.Run()
			o1, b1 := mallocs()
			objs, bytes = objs+o1-o0, bytes+b1-b0
			pulled = src.n
		})
	})
	if err != nil {
		return err
	}
	cost.scale(1 / reps)
	rp.cost.add(cost)
	rp.sims++
	rp.setupNS += setupNS / reps
	rp.simRefs += float64(pulled)
	rp.simObjs += objs / reps
	rp.simBytes += bytes / reps

	eng := p.engineLayer()
	rp.misses[eng] += float64(m.SharedMisses + m.PrivateMisses)
	rp.upgrades[eng] += float64(m.Upgrades)
	rp.events += float64(m.EventsFired)
	rp.simNS += cost.NS["sim"]
	if m.EventSlab > rp.slabMax {
		rp.slabMax = m.EventSlab
	}
	if hasRing {
		for c, v := range sends {
			rp.sends[c] += v
		}
		rp.ringNS += cost.NS["ring"]
		rp.ringUtil = append(rp.ringUtil, m.NetworkUtil)
	}
	if hasBus {
		rp.tenures += tenures
		rp.busNS += cost.NS["bus"]
	}
	if prof := p.wcfg.Profile; prof.SharedMissRate > 0 {
		rp.table2Errs = append(rp.table2Errs, 100*math.Abs(m.SharedMissRate()-prof.SharedMissRate)/prof.SharedMissRate)
	}
	art, err := json.Marshal(m.Snapshot())
	if err != nil {
		return err
	}
	rp.artifacts = append(rp.artifacts, art)
	if withModel {
		rp.timeModel(p, m)
	}
	return nil
}

// timeModel times the analytic model of p's machine, calibrated from
// its simulation, over the paper's processor-cycle axis.
func (rp *replay) timeModel(p simPoint, m *core.Metrics) {
	cpus := p.wcfg.Profile.CPUs
	cal := analytic.FromMetrics(m, cpus)
	var eval func(sim.Time) analytic.Eval
	switch p.cfg.Protocol {
	case core.SnoopBus:
		eval = analytic.NewBusModel(p.cfg.Bus, cal).Evaluate
	case core.HierRing:
		clusters := p.cfg.Clusters
		if clusters == 0 {
			clusters = 4
		}
		eval = analytic.NewHierModel(p.cfg.Ring, cal, clusters).Evaluate
	default:
		eval = analytic.NewRingModel(p.cfg.Ring, cal, p.cfg.Protocol == core.SnoopRing).Evaluate
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for ns := 1; ns <= 20; ns++ {
			_ = eval(sim.Time(ns) * sim.Nanosecond)
		}
	}
	rp.evalNS += float64(time.Since(t0).Nanoseconds())
	rp.evals += reps * 20
}

// metrics writes the replay's per-layer metrics into m.
func (rp *replay) metrics(m map[string]float64) {
	m["workload.refs"] = rp.refs
	m["workload.ns_per_ref"] = ratio(rp.refNS, rp.refs)
	m["workload.allocs_per_ref"] = ratio(rp.refAllocs, rp.refs)
	m["workload.table2_err_pct"] = mean(rp.table2Errs)
	m["cache.ns_per_access"] = ratio(rp.accessNS, rp.accesses)
	m["cache.hit_ratio"] = ratio(rp.hits, rp.accesses)
	m["core.setup_ms_per_sim"] = ratio(rp.setupNS/1e6, float64(rp.sims))
	m["core.allocs_per_ref"] = ratio(rp.simObjs, rp.simRefs)
	m["core.alloc_bytes_per_ref"] = ratio(rp.simBytes, rp.simRefs)
	for _, eng := range engineLayers {
		m[eng+".misses"] = rp.misses[eng]
		m[eng+".upgrades"] = rp.upgrades[eng]
		m[eng+".self_ns_per_miss"] = ratio(rp.cost.NS[eng], rp.misses[eng])
		m[eng+".allocs_per_miss"] = ratio(rp.cost.Objs[eng], rp.misses[eng])
	}
	var sends float64
	for c, v := range rp.sends {
		name := map[ring.SlotClass]string{ring.ProbeEven: "probe_even", ring.ProbeOdd: "probe_odd", ring.BlockSlot: "block"}[ring.SlotClass(c)]
		m["ring.sends."+name] = v
		sends += v
	}
	m["ring.self_ns_per_send"] = ratio(rp.ringNS, sends)
	m["ring.slot_util"] = mean(rp.ringUtil)
	m["bus.tenures"] = rp.tenures
	m["bus.self_ns_per_tenure"] = ratio(rp.busNS, rp.tenures)
	m["sim.events"] = rp.events
	m["sim.self_ns_per_event"] = ratio(rp.simNS, rp.events)
	m["sim.event_slab_max"] = float64(rp.slabMax)
	m["analytic.ns_per_eval"] = ratio(rp.evalNS, rp.evals)
}
