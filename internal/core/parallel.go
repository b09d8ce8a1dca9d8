// Parallel execution of complete systems: the model-level layer over
// sim.ParKernel.
//
// The partitioner splits the machine's node range into P contiguous
// domains, each a full System (its own home map, node-ranged directory
// engine, calendar queue and event slab) running on one shard of a
// conservative-window parallel kernel. Parallelism is honored for
// exactly one covered class, the segmented directory ring:
//
//   - DirectoryRing protocol over a segmented ring (Ring.Segments >=
//     2). Each domain owns whole ring segments; a message crossing a
//     boundary link between two shards becomes a cross-shard event at
//     a banded calendar position, and the boundary link's hop latency
//     is the lookahead that sizes the barrier windows. The slotted-ring,
//     bus and hierarchical engines arbitrate every transaction through
//     central slot/tenure state with zero lookahead, and the classic
//     global-slot ring has no boundary links, so they fall back.
//   - No tracing and no non-blocking stores: the tracer samples on a
//     global span counter, which is interleaving-dependent.
//
// Everything else runs on the sequential kernel with the reason
// recorded in Metrics.Parallel.Fallback — a loud fallback, never a
// silent divergence. For the covered class a partitioned run fires the
// sequential run's events at the same (time, seq) calendar positions,
// and the merge below folds per-domain aggregates with integer-exact,
// order-free arithmetic, so the result artifact is byte-identical to
// the sequential one (the cross-check tests enforce this).
package core

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// planPartitions decides how many partitions cfg/src actually get, the
// barrier-window width to run them under and, when the answer is 1
// despite a larger request, why.
func planPartitions(cfg Config, src workload.Source) (p int, window sim.Time, fallback string) {
	req := cfg.Parallel
	if req <= 1 {
		return 1, 0, ""
	}
	if cfg.Protocol != DirectoryRing {
		return 1, 0, fmt.Sprintf("protocol %v is centrally arbitrated (zero lookahead)", cfg.Protocol)
	}
	if cfg.Trace.Enabled() {
		return 1, 0, "tracing samples on a global span counter"
	}
	if cfg.NonBlockingStores {
		return 1, 0, "non-blocking stores are outside the covered class"
	}
	S := cfg.Ring.Segments
	if S < 2 {
		return 1, 0, "the classic ring has no segments; partitions need the boundary-link lookahead of a segmented ring (2 or more segments)"
	}
	// Domains must own whole segments (a segment's injection and link
	// state is single-shard), so the partition count is the largest
	// divisor of S within the request. S divides the node count, so no
	// domain is ever empty.
	p = req
	if p > S {
		p = S
	}
	for ; p >= 2; p-- {
		if S%p == 0 {
			break
		}
	}
	if p < 2 {
		return 1, 0, fmt.Sprintf("no divisor of %d ring segments within requested parallelism %d", S, req)
	}
	// The minimum boundary-link hop latency is exactly how far one
	// segment can affect the next, so it is the widest window that can
	// never miss a cross-shard message.
	n := src.NumCPUs()
	rc := cfg.Ring
	rc.Nodes = n
	g := ring.NewGeometry(rc)
	w := g.MinSegmentHop()
	if w <= 0 {
		// The covered class is defined by positive boundary-link
		// lookahead; a geometry without it is a model bug, not a
		// fallback case.
		panic(fmt.Sprintf("core: segmented ring (%d nodes, %d segments) has zero boundary-link lookahead", n, S))
	}
	return p, w, ""
}

// Run executes src under cfg, honoring cfg.Parallel for covered
// configurations and falling back to the sequential kernel loudly
// otherwise. It is the preferred entry point for drivers; the result
// is byte-identical to NewSystem(cfg, src).Run() in either case, plus
// the ParallelStats record of how the run executed.
func Run(cfg Config, src workload.Source) *Metrics {
	p, window, fallback := planPartitions(cfg, src)
	if p <= 1 {
		s := NewSystem(cfg, src)
		m := s.Run()
		m.Parallel = ParallelStats{Requested: cfg.Parallel, Partitions: 1, Fallback: fallback}
		return m
	}

	n := src.NumCPUs()
	pk := sim.NewParKernel(p, window)

	// Build every ring segment on its owning shard, then close the
	// chain — same-shard boundaries hand off through the shard's own
	// banded calendar, cross-shard ones through the parallel kernel's
	// lookahead-checked post. The sequential segmented run makes the
	// identical AtBoundary calls on one kernel, which is what the
	// byte-identity cross-checks lean on.
	S := cfg.Ring.Segments
	rc := cfg.Ring
	rc.Nodes = n
	segs := make([]*ring.SegRing, S)
	shardOf := func(seg int) int { return seg * p / S }
	for si := 0; si < S; si++ {
		segs[si] = ring.NewSegment(pk.Shard(shardOf(si)), rc, si)
	}
	for si := 0; si < S; si++ {
		from, to := shardOf(si), shardOf((si+1)%S)
		next := segs[(si+1)%S]
		if from == to {
			segs[si].Link(next, pk.Shard(from).AtBoundary)
		} else {
			segs[si].Link(next, func(at sim.Time, seq uint64, h sim.EventHandler) {
				pk.PostAt(from, to, at, seq, h)
			})
		}
	}

	doms := make([]*System, p)
	for i := 0; i < p; i++ {
		doms[i] = newSystemOn(pk.Shard(i), cfg, src, i*n/p, (i+1)*n/p, segs[i*S/p:(i+1)*S/p])
	}
	for _, d := range doms {
		d.start()
	}
	pk.Run()

	// Reduce in fixed ascending-domain order. Every merged quantity is
	// an integer sum, max, or integer-moment accumulator, so the order
	// cannot change the result — fixing it anyway keeps the reduction
	// trivially auditable.
	root := doms[0]
	root.collect()
	for _, d := range doms[1:] {
		d.collect()
		root.mergeDomain(d)
	}
	root.finalize()

	st := pk.Stats()
	m := root.m // a copy: the result must not keep the domains alive
	m.Parallel = ParallelStats{
		Requested:      cfg.Parallel,
		Partitions:     p,
		WindowPS:       int64(window),
		Windows:        st.Windows,
		CrossEvents:    st.CrossEvents,
		CrossWindows:   st.CrossWindows,
		BarrierStallNS: st.BarrierStallNS,
	}
	return &m
}

// mergeDomain folds domain d's collected (but not finalized) metrics
// into s's.
func (s *System) mergeDomain(d *System) {
	dm, sm := &d.m, &s.m
	if dm.ExecTime > sm.ExecTime {
		sm.ExecTime = dm.ExecTime
	}
	sm.BusyTime += dm.BusyTime
	sm.StallTime += dm.StallTime

	sm.InstrRefs += dm.InstrRefs
	sm.DataRefs += dm.DataRefs
	sm.SharedRefs += dm.SharedRefs
	sm.Hits += dm.Hits
	sm.SharedMisses += dm.SharedMisses
	sm.PrivateMisses += dm.PrivateMisses
	sm.Upgrades += dm.Upgrades
	sm.LocalMisses += dm.LocalMisses
	sm.LocalInvs += dm.LocalInvs
	sm.WriteBacks += dm.WriteBacks
	sm.TwoCycleMulticast += dm.TwoCycleMulticast
	for t, c := range dm.TxnCount {
		sm.TxnCount[t] += c
	}
	sm.BufferedStores += dm.BufferedStores
	for c, cnt := range dm.ClassCount {
		sm.ClassCount[c] += cnt
	}
	for o, cnt := range dm.MissTraversals.Counts() {
		sm.MissTraversals.AddCount(o, cnt)
	}
	for o, cnt := range dm.InvTraversals.Counts() {
		sm.InvTraversals.AddCount(o, cnt)
	}

	s.missAcc.merge(&d.missAcc)
	s.invAcc.merge(&d.invAcc)
	s.bufAcc.merge(&d.bufAcc)

	// Segmented-interconnect occupancy integrals: plain integer sums;
	// finalize turns the whole-machine totals into NetworkUtil.
	s.segTransitPS += d.segTransitPS
	s.segWarmPS += d.segWarmPS

	// Simulator-side counters (snapshot-excluded): total work and the
	// widest per-partition slab.
	sm.EventsFired += dm.EventsFired
	if dm.EventSlab > sm.EventSlab {
		sm.EventSlab = dm.EventSlab
	}
}
