// Package core assembles complete simulated multiprocessors: N
// single-issue processors (one instruction per cycle on hits, blocking
// on misses and invalidations, instruction fetches never missing — the
// paper's Section 4.1 processor model) driving one of the five
// coherence engines over a slotted ring or a split-transaction bus.
// Running a system produces the Metrics the paper reports — processor
// utilization, network utilization, miss latency — plus the event
// mixes its analytical models consume.
package core

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/bussnoop"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/hier"
	"repro/internal/memory"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/scilist"
	"repro/internal/sim"
	"repro/internal/snoop"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine is a coherence engine: the miss and upgrade entry points the
// node set hands a reference to when the cache cannot serve it. All
// five protocol implementations satisfy it.
type Engine = node.Engine

// Compile-time checks that every engine satisfies the interface.
var (
	_ Engine = (*snoop.Engine)(nil)
	_ Engine = (*directory.Engine)(nil)
	_ Engine = (*scilist.Engine)(nil)
	_ Engine = (*bussnoop.Engine)(nil)
	_ Engine = (*hier.Engine)(nil)
)

// Protocol selects a coherence engine + interconnect combination.
type Protocol int

const (
	// SnoopRing is the paper's snooping protocol on the slotted ring.
	SnoopRing Protocol = iota
	// DirectoryRing is the full-map directory protocol on the ring.
	DirectoryRing
	// SCIRing is the linked-list directory protocol on the ring.
	SCIRing
	// SnoopBus is the split-transaction bus baseline.
	SnoopBus
	// HierRing is the hierarchical two-level slotted ring extension
	// (Hector/KSR1 direction, Section 5 of the paper): clusters of
	// processors on local rings joined by a global ring, with
	// hierarchical snooping.
	HierRing
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case SnoopRing:
		return "snoop-ring"
	case DirectoryRing:
		return "directory-ring"
	case SCIRing:
		return "sci-ring"
	case SnoopBus:
		return "snoop-bus"
	case HierRing:
		return "hier-ring"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// DefaultProcCycle is 20 ns: the 50 MIPS processors used for the
// calibration simulations (Section 4.0).
const DefaultProcCycle = 20 * sim.Nanosecond

// Config describes a complete system.
type Config struct {
	// Protocol selects the engine + interconnect.
	Protocol Protocol
	// ProcCycle is the processor cycle time (default 20 ns = 50 MIPS).
	ProcCycle sim.Time
	// Ring configures the slotted ring for ring protocols; Nodes is
	// overridden by the workload's CPU count.
	Ring ring.Config
	// Bus configures the bus for SnoopBus; Nodes is overridden too.
	Bus bus.Config
	// Cache is the per-node cache geometry (zero: 128 KB / 16 B).
	Cache cache.Config
	// PageBytes is the home-placement granularity; default 4096.
	PageBytes int
	// Seed drives home placement.
	Seed uint64
	// WarmupDataRefs excludes each processor's first references from
	// the metrics: caches warm up, sharing patterns reach steady state,
	// and the interconnect statistics restart once every processor has
	// crossed the threshold. The paper's multi-million-reference traces
	// made cold-start negligible; short calibration runs need this
	// window. Zero measures everything.
	WarmupDataRefs int
	// Clusters is the cluster count for the HierRing protocol
	// (default 4); the node count must divide evenly.
	Clusters int
	// NonBlockingStores enables the weak-ordering latency-tolerance
	// model of the paper's conclusion (Section 6): stores retire into a
	// write buffer and the processor keeps executing; only loads and
	// buffer-full conditions block. The paper argues the slotted ring
	// can absorb the extra overlap-induced load while a near-saturated
	// bus cannot — the latency-tolerance ablation tests exactly that.
	NonBlockingStores bool
	// WriteBufferDepth bounds outstanding non-blocking stores
	// (default 8).
	WriteBufferDepth int
	// Trace enables transaction-level tracing (zero: disabled, and the
	// hot paths pay only nil-check branches). With SampleEvery = k > 0
	// every warm coherence transaction feeds the per-class latency
	// histograms and every k-th gets a full span record in the trace
	// ring buffers; ring and bus occupancy timelines are captured for
	// the whole measured window.
	Trace obs.Config
	// Parallel requests a partitioned parallel run with that many
	// domains (see Run and ParallelStats). 0 or 1 runs the sequential
	// kernel exactly as before; higher values are honored only for the
	// one covered class — DirectoryRing over a segmented ring
	// (Ring.Segments >= 2), untraced, blocking stores — and fall back
	// loudly (Metrics.Parallel.Fallback) otherwise. Only the Run entry
	// point consults it; System always executes sequentially.
	Parallel int
}

// Validate reports the first shape rule cfg breaks on a machine of
// nodes processors; NewSystem panics on the same shapes. Each rule
// lives in the layer that owns it (cache geometry, page placement,
// ring and bus layout, cluster split); Validate asks the layers the
// protocol builds.
func (cfg Config) Validate(nodes int) error {
	if cfg.ProcCycle < 0 {
		return fmt.Errorf("core: negative processor cycle %v", cfg.ProcCycle)
	}
	if err := cfg.Cache.Validate(); err != nil {
		return err
	}
	if err := memory.CheckPageBytes(cfg.pageBytes()); err != nil {
		return err
	}
	if cfg.Ring.Segments != 0 {
		if cfg.Protocol != DirectoryRing {
			return fmt.Errorf("core: ring segments require the directory protocol, not %v", cfg.Protocol)
		}
		if cfg.Trace.Enabled() {
			return errors.New("core: tracing is unsupported with the segmented ring (Ring.Segments >= 2)")
		}
	}
	switch cfg.Protocol {
	case SnoopRing, DirectoryRing, SCIRing:
		rc := cfg.Ring
		rc.Nodes = nodes
		return rc.Validate()
	case SnoopBus:
		bc := cfg.Bus
		bc.Nodes = nodes
		return bc.Validate()
	case HierRing:
		if err := hier.CheckClusters(nodes, cfg.clusters()); err != nil {
			return err
		}
		rc := cfg.Ring
		rc.Nodes = cfg.clusters() // the global ring; local rings differ only in Nodes
		return rc.Validate()
	default:
		return fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
	}
}

// pageBytes is the home-placement granularity, 4096 by default.
func (cfg Config) pageBytes() int {
	if cfg.PageBytes == 0 {
		return 4096
	}
	return cfg.PageBytes
}

// clusters is the HierRing cluster count, 4 by default.
func (cfg Config) clusters() int {
	if cfg.Clusters == 0 {
		return 4
	}
	return cfg.Clusters
}

// Metrics aggregates one run's results.
type Metrics struct {
	// ExecTime is when the last processor finished its stream.
	ExecTime sim.Time
	// BusyTime sums processor compute time across CPUs.
	BusyTime sim.Time
	// StallTime sums processor blocked time across CPUs.
	StallTime sim.Time

	// Reference counts.
	InstrRefs, DataRefs, SharedRefs uint64
	Hits                            uint64
	SharedMisses, PrivateMisses     uint64
	Upgrades                        uint64
	// LocalMisses / LocalInvs are transactions satisfied without the
	// interconnect; WriteBacks are dirty-eviction block transfers.
	LocalMisses, LocalInvs uint64
	WriteBacks             uint64
	// TwoCycleMulticast is the subset of TwoCycle remote misses caused
	// by a write miss multicasting invalidations (as opposed to a
	// badly-placed dirty owner); the analytical model prices the two
	// differently.
	TwoCycleMulticast uint64

	// TxnCount tallies transactions by class.
	TxnCount [coherence.NumTxn]uint64

	// MissLatency aggregates the blocking latency of read/write misses
	// (nanoseconds); InvLatency the latency of invalidations.
	MissLatency stats.Mean
	InvLatency  stats.Mean

	// BufferedStores counts store transactions that retired through
	// the write buffer without stalling (NonBlockingStores mode);
	// BufferedLatency tracks their completion latencies.
	BufferedStores  uint64
	BufferedLatency stats.Mean

	// ClassCount tallies remote misses by directory latency class
	// (Figure 5).
	ClassCount map[coherence.MissClass]uint64

	// MissTraversals / InvTraversals are the Table 1 distributions over
	// transactions that used the ring.
	MissTraversals *stats.Distribution
	InvTraversals  *stats.Distribution

	// NetworkUtil is the ring slot (or bus) utilization at completion.
	NetworkUtil float64

	// EventsFired is the number of kernel events dispatched by the run
	// and EventSlab the kernel's event-record high-water mark — the
	// simulation engine's unit of work and allocation footprint,
	// reported for perf observability. Excluded from MetricsSnapshot:
	// they describe the simulator, not the simulated machine.
	EventsFired uint64
	EventSlab   int

	// Trace is the run's tracer when Config.Trace enabled it, nil
	// otherwise. Like EventsFired/EventSlab it is excluded from
	// MetricsSnapshot: span records are a sampled observability artifact
	// of the run, not part of the deterministic simulated-machine
	// results.
	Trace *obs.Tracer

	// Parallel describes how the run was executed (partition count,
	// synchronization counters, fallback reason). Like EventsFired it is
	// excluded from MetricsSnapshot: it describes the simulator's
	// execution strategy, and the covered-config guarantee is precisely
	// that the strategy never changes the simulated-machine results.
	Parallel ParallelStats
}

// ParallelStats reports how a Run executed: the partitioning actually
// used, the conservative-window synchronization counters, and — when
// the requested parallelism could not be honored — the loud fallback
// reason.
type ParallelStats struct {
	// Requested is Config.Parallel as asked for.
	Requested int `json:"requested"`
	// Partitions is the partition count actually used (1 = sequential).
	Partitions int `json:"partitions"`
	// Fallback is empty when the request was honored; otherwise it names
	// why the run fell back to the sequential kernel. Configurations
	// outside the covered class are never run in parallel silently.
	Fallback string `json:"fallback,omitempty"`
	// WindowPS is the barrier-window width actually used, in simulated
	// picoseconds: the ring's minimum boundary-link hop.
	WindowPS int64 `json:"window_ps,omitempty"`
	// Windows and CrossEvents are the parallel kernel's barrier-window
	// and cross-partition-event counts; CrossWindows is how many windows
	// delivered at least one cross-partition event.
	Windows      uint64 `json:"windows"`
	CrossEvents  uint64 `json:"cross_events"`
	CrossWindows uint64 `json:"cross_windows,omitempty"`
	// BarrierStallNS is wall-clock nanoseconds each partition spent
	// waiting at window barriers (imbalance signal).
	BarrierStallNS []int64 `json:"barrier_stall_ns,omitempty"`
}

// ProcUtil returns the average processor utilization: busy over
// busy+stalled (the paper's "fraction of time the processor is busy").
func (m *Metrics) ProcUtil() float64 {
	total := m.BusyTime + m.StallTime
	if total == 0 {
		return 0
	}
	return float64(m.BusyTime) / float64(total)
}

// SharedMissRate returns measured shared misses per shared reference
// (upgrades excluded, as in Table 2).
func (m *Metrics) SharedMissRate() float64 {
	if m.SharedRefs == 0 {
		return 0
	}
	return float64(m.SharedMisses) / float64(m.SharedRefs)
}

// TotalMissRate returns measured misses per data reference.
func (m *Metrics) TotalMissRate() float64 {
	if m.DataRefs == 0 {
		return 0
	}
	return float64(m.SharedMisses+m.PrivateMisses) / float64(m.DataRefs)
}

// System is a runnable simulated multiprocessor — or, for parallel
// runs, one partition of it: a System owns the processors in the node
// range [lo, hi) of its workload, which is the full range for the
// sequential entry points.
type System struct {
	cfg    Config
	k      *sim.Kernel
	src    workload.Source
	nodes  *node.Set
	engine Engine
	ring   *ring.Ring
	bus    *bus.Bus
	// segs is the segmented-ring variant's segment set (Ring.Segments
	// >= 2 with the directory protocol): the whole chain for sequential
	// runs, this domain's contiguous slice for partitioned ones.
	segs []*ring.SegRing
	// segWarm counts warmed processors per owned segment; a segment's
	// statistics restart when its own last processor warms, which (unlike
	// a global reset) is partition-invariant because domains own whole
	// segments.
	segWarm []int
	// segTransitPS / segWarmPS are the owned segments' summed occupancy
	// integral and stats-start times in integer picoseconds; finalize
	// renders NetworkUtil from the merged sums so the figure is identical
	// however the segments were partitioned.
	segTransitPS int64
	segWarmPS    int64
	tracer       *obs.Tracer
	procs        []*proc
	lo, hi       int
	m            Metrics

	// Latency aggregates accumulate in integer picoseconds and become
	// the public stats.Mean fields in one finalize step. Integer sums
	// are exact and order-free, which is what lets a partitioned run
	// merge per-domain aggregates into byte-identical results; the
	// incremental float path the Means used to take is neither.
	missAcc, invAcc, bufAcc latAcc

	running    int
	finished   int
	warmed     int
	blockBytes int
}

// latAcc accumulates a latency population exactly: integer-picosecond
// sum, count, min and max. mean() converts to the reported stats.Mean
// with a single division per moment, so the result is independent of
// observation order and of how the population was split across
// partitions.
type latAcc struct {
	n            uint64
	sumPS        int64
	minPS, maxPS sim.Time
}

func (a *latAcc) observe(lat sim.Time) {
	if a.n == 0 || lat < a.minPS {
		a.minPS = lat
	}
	if a.n == 0 || lat > a.maxPS {
		a.maxPS = lat
	}
	a.n++
	a.sumPS += int64(lat)
}

// merge folds b into a; used by the parallel runner in fixed domain
// order (the integer moments make the order irrelevant, but a fixed
// order keeps the reduction auditable).
func (a *latAcc) merge(b *latAcc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 || b.minPS < a.minPS {
		a.minPS = b.minPS
	}
	if a.n == 0 || b.maxPS > a.maxPS {
		a.maxPS = b.maxPS
	}
	a.n += b.n
	a.sumPS += b.sumPS
}

// mean renders the accumulator as the public nanosecond stats.Mean.
func (a *latAcc) mean() stats.Mean {
	if a.n == 0 {
		return stats.Mean{}
	}
	return stats.MeanFromMoments(a.n,
		float64(a.sumPS)/float64(sim.Nanosecond),
		a.minPS.Nanoseconds(), a.maxPS.Nanoseconds())
}

// proc is one blocking processor. It doubles as the sim.EventHandler
// for its own issue events: the blocking pipeline has at most one
// scheduled event per processor (the next data access or the stream
// end), so the pending reference lives in the proc record and the hot
// loop schedules through the kernel's zero-allocation path.
type proc struct {
	id         int
	sys        *System
	busy       sim.Time
	stall      sim.Time
	done       bool
	finish     sim.Time
	dataIssued int
	warm       bool
	// wbBase is the processor's engine write-back count at the instant
	// it warmed; the run's WriteBacks metric is the per-processor
	// post-warm sum. Gating each node at its own warm instant (like
	// every other per-processor aggregate, and like the tracer's span
	// counts) makes the metric independent of how processors are
	// partitioned across domains.
	wbBase uint64
	// Pending issue event state: the data reference to access when the
	// compute cycles elapse, or eol when the stream is exhausted.
	ref   trace.Ref
	write bool
	eol   bool
	start sim.Time
	// accessDone is the engine completion callback for blocking
	// accesses, built once per proc so the steady state allocates no
	// closures.
	accessDone func(at sim.Time, res coherence.Result)
	// Write-buffer state for the non-blocking-stores model. The buffer
	// coalesces stores to a block already being acquired, as real write
	// buffers and MSHRs do.
	pendingStores int
	pendingBlocks map[uint64]bool
	// waiters holds accesses merged into an outstanding buffered store
	// (MSHR semantics): they resume when it completes.
	waiters  map[uint64][]func()
	draining bool
}

// NewSystem builds a system running src under cfg. The node count comes
// from the workload.
func NewSystem(cfg Config, src workload.Source) *System {
	return newSystemOn(sim.NewKernel(), cfg, src, 0, src.NumCPUs(), nil)
}

// newSystemOn builds a system on an existing kernel, owning only the
// processors in [lo, hi). The sequential path passes the full range; the
// parallel runner builds one domain per partition, each on its own
// kernel shard. A domain still models the full machine's geometry (ring,
// home placement) so node ids and addresses mean the same thing
// everywhere, but it drives — and builds caches and banks for — only
// its own nodes.
//
// segs, non-nil only for segmented-interconnect partitioned runs, is
// this domain's pre-built (and pre-linked across shard boundaries)
// slice of ring segments; sequential segmented runs build their own
// full chain here.
func newSystemOn(k *sim.Kernel, cfg Config, src workload.Source, lo, hi int, segs []*ring.SegRing) *System {
	if cfg.ProcCycle == 0 {
		cfg.ProcCycle = DefaultProcCycle
	}
	if cfg.WriteBufferDepth == 0 {
		cfg.WriteBufferDepth = 8
	}
	n := src.NumCPUs()
	if err := cfg.Validate(n); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, k: k, src: src, lo: lo, hi: hi}
	s.m.ClassCount = make(map[coherence.MissClass]uint64)
	s.m.MissTraversals = stats.NewDistribution()
	s.m.InvTraversals = stats.NewDistribution()

	// Shared pages are placed randomly across homes (the paper's OS
	// model); private data and code are homed at the issuing node.
	pageBytes := cfg.pageBytes()
	home := memory.NewHomeMap(n, pageBytes, sim.NewRand(cfg.Seed))
	if cfg.Protocol == DirectoryRing && cfg.Ring.Segments != 0 {
		// The segmented interconnect's partitioned runs build one home
		// map per domain; stateless hashed placement makes them agree on
		// every shared page without coordination (the rng stream is
		// consumed in first-touch order, a whole-run interleaving no
		// partition can reproduce alone).
		home = memory.NewHashedHomeMap(n, pageBytes, cfg.Seed)
	}
	home.SetHint(workload.HomeHint)
	s.nodes = node.New(k, home, cfg.Cache, lo, hi)

	s.tracer = obs.New(cfg.Trace, n)

	switch cfg.Protocol {
	case SnoopRing, DirectoryRing, SCIRing:
		rc := cfg.Ring
		rc.Nodes = n
		var nets []directory.Interconnect
		if rc.Segments != 0 {
			// The segmented interconnect: per-segment injection and
			// boundary-link serialization, the model whose boundary hop
			// is the parallel kernel's lookahead.
			if segs == nil {
				segs = ring.NewSegmentedChain(k, rc)
			}
			s.segs = segs
			s.segWarm = make([]int, len(segs))
			for _, sr := range segs {
				nets = append(nets, sr)
			}
		} else {
			s.ring = ring.New(k, rc)
			nets = []directory.Interconnect{s.ring}
		}
		r := s.ring
		switch cfg.Protocol {
		case SnoopRing:
			s.engine = snoop.New(r, s.nodes, s.tracer)
		case DirectoryRing:
			s.engine = directory.New(nets, s.nodes, s.tracer)
		case SCIRing:
			s.engine = scilist.New(r, s.nodes)
		}
		if s.tracer != nil {
			// One occupancy track per slot class, fed from the ring's
			// per-message observer.
			var tracks [ring.NumSlotClasses]*obs.Track
			for c := 0; c < ring.NumSlotClasses; c++ {
				cl := ring.SlotClass(c)
				tracks[c] = s.tracer.NewTrack("ring "+cl.String(), r.Geo.SlotsOfClass(cl))
			}
			r.OnMessage = func(class ring.SlotClass, grab, removal sim.Time) {
				tracks[class].Message(grab, removal)
			}
		}
	case SnoopBus:
		bc := cfg.Bus
		bc.Nodes = n
		b := bus.New(k, bc)
		s.bus = b
		s.engine = bussnoop.New(b, s.nodes)
		if s.tracer != nil {
			// One occupancy track per tenure kind; the bus is a single
			// shared resource, so each track has one "slot".
			var tracks [bus.NumTenureKinds]*obs.Track
			for kd := 0; kd < bus.NumTenureKinds; kd++ {
				tracks[kd] = s.tracer.NewTrack("bus "+bus.TenureKind(kd).String(), 1)
			}
			b.OnTenure = func(kind bus.TenureKind, grant, end sim.Time) {
				tracks[kind].Message(grant, end)
			}
		}
	case HierRing:
		s.engine = hier.New(s.nodes, hier.Options{Clusters: cfg.clusters(), Ring: cfg.Ring})
	}

	s.blockBytes = cfg.Cache.BlockBytes
	if s.blockBytes == 0 {
		s.blockBytes = cache.DefaultConfig.BlockBytes
	}
	s.procs = make([]*proc, hi-lo)
	for i := range s.procs {
		p := &proc{
			id:            lo + i,
			sys:           s,
			warm:          cfg.WarmupDataRefs == 0,
			pendingBlocks: make(map[uint64]bool),
			waiters:       make(map[uint64][]func()),
		}
		p.accessDone = func(at sim.Time, res coherence.Result) {
			s.record(p, p.ref, at-p.start, res)
			if !p.warm && p.dataIssued >= s.cfg.WarmupDataRefs {
				s.crossWarmup(p)
			}
			s.advance(p)
		}
		s.procs[i] = p
		if p.warm {
			s.warmed++
			s.tracer.SetWarm(p.id)
		}
	}
	return s
}

// crossWarmup marks p as measured; when the last processor warms up,
// the interconnect statistics restart so that utilization figures
// cover only the steady-state window.
func (s *System) crossWarmup(p *proc) {
	p.warm = true
	p.busy = 0
	p.stall = 0
	p.wbBase = s.nodes.WriteBacksOf(p.id)
	s.warmed++
	s.tracer.SetWarm(p.id)
	if s.segs != nil {
		// Segmented interconnect: each segment's statistics restart when
		// its own last processor warms. Gating per segment (not on the
		// global last processor) keeps the restart instant a function of
		// that segment's nodes alone, so it lands at the same simulated
		// time however the segments are partitioned across domains.
		si := s.segs[0].Geo.SegOf(p.id) - s.segs[0].Segment()
		s.segWarm[si]++
		if lo, hi := s.segs[si].NodeRange(); s.segWarm[si] == hi-lo {
			s.segs[si].ResetStats()
		}
		return
	}
	if s.warmed == len(s.procs) {
		if s.ring != nil {
			s.ring.ResetStats()
		}
		if s.bus != nil {
			s.bus.ResetStats()
		}
		s.tracer.ResetNet(s.k.Now())
		if rs, ok := s.engine.(interface{ ResetNetStats() }); ok {
			rs.ResetNetStats()
		}
	}
}

// Kernel returns the simulation kernel (tests and tools).
func (s *System) Kernel() *sim.Kernel { return s.k }

// EngineImpl returns the protocol engine (tests and tools).
func (s *System) EngineImpl() Engine { return s.engine }

// Ring returns the slotted ring, or nil for bus systems.
func (s *System) Ring() *ring.Ring { return s.ring }

// Bus returns the bus, or nil for ring systems.
func (s *System) Bus() *bus.Bus { return s.bus }

// Run executes every processor's stream to completion and returns the
// metrics: a copy, so a caller that keeps the result does not keep the
// simulated machine alive with it.
func (s *System) Run() *Metrics {
	s.start()
	s.k.Run()
	s.collect()
	s.finalize()
	m := s.m
	return &m
}

// start schedules every processor's first issue event. The parallel
// runner calls it on each domain before driving the shared parallel
// kernel.
func (s *System) start() {
	s.running = len(s.procs)
	for _, p := range s.procs {
		s.advance(p)
	}
}

// collect folds the post-run state into the metrics: completion checks,
// interconnect utilization, write-backs, kernel counters. It leaves the
// latency accumulators raw so the parallel runner can merge domains
// exactly; finalize renders them.
func (s *System) collect() {
	if s.finished != len(s.procs) {
		panic(fmt.Sprintf("core: %d of %d processors did not finish (deadlock?)",
			len(s.procs)-s.finished, len(s.procs)))
	}
	switch {
	case s.segs != nil:
		// Collect the owned segments' raw occupancy integrals; finalize
		// renders NetworkUtil from the merged sums (a partitioned run
		// must merge all domains' integrals first).
		for _, sr := range s.segs {
			transit, start := sr.Totals()
			s.segTransitPS += int64(transit)
			s.segWarmPS += int64(start)
		}
	case s.ring != nil:
		s.m.NetworkUtil = s.ring.OverallUtilization()
	case s.bus != nil:
		s.m.NetworkUtil = s.bus.Utilization()
	default:
		if rep, ok := s.engine.(interface{ NetworkUtilization() float64 }); ok {
			s.m.NetworkUtil = rep.NetworkUtilization()
		}
	}
	var wb uint64
	for _, p := range s.procs {
		wb += s.nodes.WriteBacksOf(p.id) - p.wbBase
	}
	s.m.WriteBacks = wb
	s.m.EventsFired = s.k.Fired()
	s.m.EventSlab = s.k.SlabSize()
	s.tracer.Finish(s.k.Now())
	s.m.Trace = s.tracer
}

// finalize renders the integer latency accumulators into the public
// Mean fields — the single division per moment that keeps the result
// independent of observation order and domain partitioning.
func (s *System) finalize() {
	if s.segs != nil {
		// Ring-wide utilization from the merged per-segment occupancy
		// integrals (see SegRing.Totals): one float expression over
		// integer sums, so sequential and partitioned runs agree to the
		// last bit. S and NumSlots are whole-machine figures regardless
		// of how many segments this (root) domain owned itself.
		g := &s.segs[0].Geo
		S := int64(g.Segments)
		denom := (S*int64(s.m.ExecTime) - s.segWarmPS) * int64(g.NumSlots())
		if denom > 0 {
			s.m.NetworkUtil = float64(s.segTransitPS*S) / float64(denom)
		}
	}
	s.m.MissLatency = s.missAcc.mean()
	s.m.InvLatency = s.invAcc.mean()
	s.m.BufferedLatency = s.bufAcc.mean()
}

// Metrics returns the metrics collected so far.
func (s *System) Metrics() *Metrics { return &s.m }

// advance consumes references for p until its next data reference (or
// stream end), charging one processor cycle per reference, then issues
// the data access after those compute cycles elapse. The issue event is
// the proc itself (see OnEvent), so the per-reference loop schedules
// without allocating.
func (s *System) advance(p *proc) {
	cyc := s.cfg.ProcCycle
	var cycles sim.Time
	for {
		ref, ok := s.src.Next(p.id)
		if !ok {
			p.busy += cycles * cyc
			p.eol = true
			s.k.AfterEvent(cycles*cyc, p)
			return
		}
		cycles++
		if ref.Op == coherence.Ifetch {
			if p.warm {
				s.m.InstrRefs++
			}
			continue
		}
		// A data reference: the access issues after the accumulated
		// compute cycles.
		p.busy += cycles * cyc
		p.dataIssued++
		if p.warm {
			s.m.DataRefs++
			if ref.Shared {
				s.m.SharedRefs++
			}
		}
		p.ref = ref
		p.write = ref.Op == coherence.Store
		s.k.AfterEvent(cycles*cyc, p)
		return
	}
}

// OnEvent fires p's pending issue event: the stream-end drain, or the
// data access whose compute cycles just elapsed. Blocking accesses
// complete through p.accessDone; the non-blocking-store paths keep
// per-call closures (they can have several accesses in flight), which
// only the latency-tolerance ablation pays for.
func (p *proc) OnEvent(at sim.Time) {
	s := p.sys
	if p.eol {
		// The write buffer must drain before the processor can retire;
		// finishProc fires now or at the last store's completion.
		p.draining = true
		if p.pendingStores == 0 {
			s.finishProc(p)
		}
		return
	}
	r := p.ref
	write := p.write
	start := at
	p.start = at
	if s.cfg.NonBlockingStores {
		block := r.Addr &^ uint64(s.blockBytes-1)
		if p.pendingBlocks[block] && !write && !s.nodes.HasBlock(p.id, r.Addr) {
			// The block's data is absent and already being acquired by
			// a buffered store: merge into it (MSHR semantics) rather
			// than duplicating the miss. A load during an in-flight
			// *upgrade* bypasses instead — the RS copy is readable
			// under weak ordering — and falls through to the normal
			// path, where it simply hits.
			p.waiters[block] = append(p.waiters[block], func() {
				if p.warm {
					s.m.Hits++
					p.stall += s.k.Now() - start
				}
				s.advance(p)
			})
			return
		}
	}
	if write && s.cfg.NonBlockingStores && p.pendingStores < s.cfg.WriteBufferDepth {
		// Weak ordering: the store retires into the write buffer and
		// the processor continues immediately. A store to a block
		// already being acquired coalesces into the pending entry at
		// no cost.
		block := r.Addr &^ uint64(s.blockBytes-1)
		if !p.pendingBlocks[block] {
			p.pendingStores++
			p.pendingBlocks[block] = true
			s.nodes.Access(p.id, r.Addr, true, func(at sim.Time, res coherence.Result) {
				s.recordNonBlocking(p, r, at-start, res)
				p.pendingStores--
				delete(p.pendingBlocks, block)
				if ws := p.waiters[block]; len(ws) > 0 {
					delete(p.waiters, block)
					for _, w := range ws {
						w()
					}
				}
				if p.draining && p.pendingStores == 0 {
					s.finishProc(p)
				}
			})
		}
		if !p.warm && p.dataIssued >= s.cfg.WarmupDataRefs {
			s.crossWarmup(p)
		}
		s.advance(p)
		return
	}
	s.nodes.Access(p.id, r.Addr, write, p.accessDone)
}

// finishProc retires one processor and folds its times into the run
// totals.
func (s *System) finishProc(p *proc) {
	p.done = true
	p.finish = s.k.Now()
	s.finished++
	if p.finish > s.m.ExecTime {
		s.m.ExecTime = p.finish
	}
	s.m.BusyTime += p.busy
	s.m.StallTime += p.stall
}

// recordNonBlocking folds a completed buffered store into the metrics:
// it counts as a transaction but stalls nobody.
func (s *System) recordNonBlocking(p *proc, r trace.Ref, lat sim.Time, res coherence.Result) {
	if !p.warm {
		return
	}
	if res.Hit {
		s.m.Hits++
		return
	}
	s.m.TxnCount[res.Txn]++
	s.m.BufferedStores++
	s.bufAcc.observe(lat)
	switch res.Txn {
	case coherence.Invalidation:
		s.m.Upgrades++
		if res.Local {
			s.m.LocalInvs++
		}
	default:
		if r.Shared {
			s.m.SharedMisses++
		} else {
			s.m.PrivateMisses++
		}
		if res.Local {
			s.m.LocalMisses++
		}
		if res.Class != coherence.LocalOrHit {
			s.m.ClassCount[res.Class]++
		}
	}
}

// record folds one completed access into the metrics. Accesses inside
// a processor's warmup window still stall it (p.stall is zeroed when it
// crosses the boundary) but are excluded from the aggregates.
func (s *System) record(p *proc, r trace.Ref, lat sim.Time, res coherence.Result) {
	if !p.warm {
		p.stall += lat
		return
	}
	if res.Hit {
		s.m.Hits++
		return
	}
	p.stall += lat
	s.m.TxnCount[res.Txn]++
	switch res.Txn {
	case coherence.Invalidation:
		s.m.Upgrades++
		if res.Local {
			s.m.LocalInvs++
		}
		s.invAcc.observe(lat)
		if res.Traversals > 0 {
			s.m.InvTraversals.Observe(res.Traversals)
		}
	default:
		if res.Local {
			s.m.LocalMisses++
		}
		if res.Class == coherence.TwoCycle && res.Txn == coherence.WriteMissClean {
			s.m.TwoCycleMulticast++
		}
		if r.Shared {
			s.m.SharedMisses++
		} else {
			s.m.PrivateMisses++
		}
		s.missAcc.observe(lat)
		if res.Traversals > 0 {
			s.m.MissTraversals.Observe(res.Traversals)
		}
		if res.Class != coherence.LocalOrHit {
			s.m.ClassCount[res.Class]++
		}
	}
}
