// Parallel execution: a partitioned conservative-window kernel.
//
// ParKernel runs P ordinary Kernels ("shards") on P goroutines in
// lockstep barrier windows. Within a window each shard drains its own
// calendar in exactly the sequential kernel's (time, seq) order; the
// window end is a global bound no shard may pass, so an event that one
// shard posts to another — always at least one lookahead interval in
// the future — is delivered at the barrier before the destination's
// clock can reach it. Conservative synchronization, no rollbacks.
//
// Determinism is the design center, not a best-effort property:
//
//   - Each shard is a plain Kernel, so intra-shard execution is exactly
//     as reproducible as a sequential run.
//   - Cross-shard events travel through per-(src,dst) SPSC queues and
//     carry an explicit boundary-band calendar position (see
//     BoundarySeqBand) chosen by the model. The destination schedules
//     each at exactly that (time, seq) pair, and its calendar orders
//     by (time, seq), so the order in which the queues are drained —
//     the only thread-schedule-dependent step — cannot change the
//     order the events fire in.
//   - Window boundaries are computed from global simulation state (the
//     earliest pending event across shards), not wall-clock races.
//
// Run the same model twice, or under GOMAXPROCS=1, or single-threaded
// via the reference executor in tests: the per-shard event sequences
// are identical.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// ParStats is a snapshot of a parallel run's synchronization costs.
type ParStats struct {
	// Windows is how many barrier windows the run executed.
	Windows uint64
	// CrossEvents is how many events crossed a partition boundary.
	CrossEvents uint64
	// CrossWindows is how many windows delivered at least one
	// cross-partition event — the honesty measure distinguishing real
	// coupled traffic from a run that never exercised the boundary.
	CrossWindows uint64
	// BarrierStallNS is wall-clock nanoseconds each shard spent waiting
	// at window barriers — the imbalance signal: a shard with far more
	// stall than its peers had too little work.
	BarrierStallNS []int64
}

// ParKernel coordinates P Kernel shards through conservative barrier
// windows. Build it, schedule initial events on the Shard kernels,
// then Run. Model code running on shard i may post events to shard j
// with PostAt, subject to the lookahead contract: the event time must
// be at or beyond the current window's end.
type ParKernel struct {
	shards []*Kernel
	window Duration

	queues  []*spscRing    // queues[src*P+dst]
	scratch [][]crossEvent // per-shard delivery scratch (reused)

	bar       barrier
	windowEnd Time // events strictly before windowEnd run this window
	done      bool
	panicked  any

	windows      uint64
	crossEvents  []uint64 // per destination shard
	winCross     []uint64 // cross events delivered per shard this window
	crossWindows uint64   // windows that delivered >=1 cross event
	stallNS      []int64
}

// crossQueueCap bounds the lock-free tier of each pair queue; windows
// posting more spill to the (still fully delivered) overflow slice.
const crossQueueCap = 1024

// NewParKernel returns a parallel kernel with p shards synchronized by
// windows of the given width. The window is the system's lookahead: a
// cross-shard event posted during a window must be timestamped at or
// after the window's end, so window must be no wider than the minimum
// cross-partition latency of the model.
func NewParKernel(p int, window Duration) *ParKernel {
	if p <= 0 {
		panic("sim: ParKernel needs at least one shard")
	}
	if window <= 0 {
		panic("sim: ParKernel window must be positive")
	}
	pk := &ParKernel{
		shards:      make([]*Kernel, p),
		window:      window,
		queues:      make([]*spscRing, p*p),
		scratch:     make([][]crossEvent, p),
		crossEvents: make([]uint64, p),
		winCross:    make([]uint64, p),
		stallNS:     make([]int64, p),
	}
	for i := range pk.shards {
		pk.shards[i] = NewKernel()
	}
	for i := range pk.queues {
		pk.queues[i] = newSPSCRing(crossQueueCap)
	}
	pk.bar.init(p)
	pk.bar.pk = pk
	return pk
}

// Shards returns the number of partitions.
func (pk *ParKernel) Shards() int { return len(pk.shards) }

// Shard returns shard i's kernel. Schedule a partition's initial
// events here before Run; during Run, only code executing on shard i
// may touch it.
func (pk *ParKernel) Shard(i int) *Kernel { return pk.shards[i] }

// Window returns the configured window width (the lookahead).
func (pk *ParKernel) Window() Duration { return pk.window }

// PostAt schedules h to fire on shard dst at exactly the calendar
// position (at, seq) (see Kernel.AtBoundary). It must be called from
// model code executing on shard src during Run. A sequential execution
// of the same model that schedules its boundary crossings at the same
// banded positions builds an identical calendar — the mechanism behind
// byte-identical parallel runs that carry real cross-shard traffic.
// seq must have BoundarySeqBand set and must be unique per (at, seq)
// pair; the model owns that discipline (the segmented ring derives it
// from the boundary link id and a per-link FIFO counter). The
// lookahead contract is enforced loudly: at must not precede the
// current window's end, because the destination may already have
// advanced into the window.
func (pk *ParKernel) PostAt(src, dst int, at Time, seq uint64, h EventHandler) {
	if h == nil {
		panic("sim: posting nil event handler")
	}
	if seq&BoundarySeqBand == 0 {
		panic("sim: PostAt requires a banded sequence number")
	}
	if end := pk.windowEnd; at < end {
		panic(fmt.Sprintf("sim: cross-partition event at %v violates lookahead (window ends %v)", at, end))
	}
	pk.queues[src*len(pk.shards)+dst].pushSeq(at, seq, h)
}

// Stats returns the run's synchronization counters. Call after Run.
func (pk *ParKernel) Stats() ParStats {
	var cross uint64
	for _, c := range pk.crossEvents {
		cross += c
	}
	return ParStats{
		Windows:        pk.windows,
		CrossEvents:    cross,
		CrossWindows:   pk.crossWindows,
		BarrierStallNS: append([]int64(nil), pk.stallNS...),
	}
}

// Run drives every shard to calendar exhaustion and returns the
// latest shard clock. Shards execute on their own goroutines; Run
// returns when no shard has pending events and no cross-partition
// events remain queued. A panic on any shard is re-raised on the
// caller's goroutine.
func (pk *ParKernel) Run() Time {
	p := len(pk.shards)
	if p == 1 {
		// One shard is a sequential run; skip the window machinery.
		pk.windows = 1
		return pk.shards[0].Run()
	}
	pk.done = false
	pk.advanceWindow()
	if pk.done {
		return pk.maxNow()
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pk.bar.abort(r)
				}
			}()
			pk.worker(i)
		}(i)
	}
	wg.Wait()
	if pk.panicked != nil {
		panic(pk.panicked)
	}
	return pk.maxNow()
}

func (pk *ParKernel) maxNow() Time {
	var t Time
	for _, k := range pk.shards {
		if k.Now() > t {
			t = k.Now()
		}
	}
	return t
}

// worker is shard i's loop: run the window, synchronize, deliver
// cross events, synchronize again while the leader picks the next
// window, repeat until global exhaustion.
func (pk *ParKernel) worker(i int) {
	k := pk.shards[i]
	for {
		// Run phase: drain this shard's calendar up to (not through)
		// the window end. Events fired here may Post cross events for
		// the next window or beyond.
		k.RunUntil(pk.windowEnd - 1)

		// Barrier 1: all shards finished the window, so every cross
		// event for the next window has been pushed.
		pk.stall(i, func() { pk.bar.wait(nil) })

		// Drain phase: put cross events addressed to this shard on its
		// calendar.
		pk.deliver(i)

		// Barrier 2: all deliveries done; the leader computes the next
		// window from the new global calendar state.
		pk.stall(i, func() { pk.bar.wait(pk.advanceWindow) })

		if pk.done {
			return
		}
	}
}

// stall runs fn (a barrier wait) and charges the wall-clock wait to
// shard i's stall counter.
func (pk *ParKernel) stall(i int, fn func()) {
	t0 := time.Now()
	fn()
	pk.stallNS[i] += time.Since(t0).Nanoseconds()
}

// deliver schedules shard i's incoming cross events. Each lands at
// its own banded (time, seq) calendar position, so the drain order is
// irrelevant: the calendar fires them in the same order whichever
// source queue was read first.
func (pk *ParKernel) deliver(i int) {
	p := len(pk.shards)
	evs := pk.scratch[i][:0]
	for src := 0; src < p; src++ {
		if src != i {
			evs = pk.queues[src*p+i].drainInto(evs)
		}
	}
	pk.scratch[i] = evs // keep grown capacity
	k := pk.shards[i]
	for _, ev := range evs {
		k.AtBoundary(ev.at, ev.seq, ev.h)
	}
	pk.crossEvents[i] += uint64(len(evs))
	pk.winCross[i] = uint64(len(evs))
}

// advanceWindow (leader section, single-threaded between barriers)
// finds the earliest pending event across shards and opens the next
// window over it, or declares the run complete. Delivery has already
// happened, so every queued cross event is on some shard's calendar.
func (pk *ParKernel) advanceWindow() {
	var winCross uint64
	for i, c := range pk.winCross {
		winCross += c
		pk.winCross[i] = 0
	}
	if winCross > 0 {
		pk.crossWindows++
	}
	next := Time(-1)
	for _, k := range pk.shards {
		if t, ok := k.PeekTime(); ok && (next < 0 || t < next) {
			next = t
		}
	}
	if next < 0 {
		pk.done = true
		return
	}
	pk.windows++
	pk.windowEnd = next + pk.window
}

// barrier is a reusable counting barrier with a leader section: the
// last arriver runs fn (if any) before releasing the others. abort
// releases every waiter immediately and poisons further waits, so a
// panicking shard cannot deadlock its peers.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     uint64
	aborted bool
	pk      *ParKernel
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

func (b *barrier) wait(leader func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(errBarrierAborted)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		if leader != nil {
			leader()
		}
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic(errBarrierAborted)
	}
}

// errBarrierAborted is the poison value peers panic with after abort;
// Run reports the original panic, not this sentinel.
var errBarrierAborted = fmt.Errorf("sim: parallel run aborted by peer shard panic")

func (b *barrier) abort(cause any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cause != errBarrierAborted && b.pk != nil && b.pk.panicked == nil {
		b.pk.panicked = cause
	}
	b.aborted = true
	b.cond.Broadcast()
}
