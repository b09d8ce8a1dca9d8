package sim

import "sync/atomic"

// crossEvent is one event posted across partitions: fire h on the
// destination shard at the boundary-band calendar position (at, seq)
// (see BoundarySeqBand), the same position a sequential run of the
// same model gives it.
type crossEvent struct {
	at  Time
	seq uint64
	h   EventHandler
}

// spscRing is a bounded single-producer single-consumer queue of
// cross-partition events. The producer is the source shard's worker
// goroutine (posting during a window); the consumer is the destination
// shard's worker (draining at the barrier). head/tail are the only
// shared words: the producer owns tail, the consumer owns head, and
// both advance monotonically — the classic lock-free SPSC discipline,
// so a post never takes a lock and never blocks the posting shard.
//
// The ring is sized at construction and never grows — growing under a
// concurrent consumer is unsafe. When one window posts more events
// than the ring holds, the excess lands in the overflow slice. Ring
// and overflow together are fully drained at every barrier, so
// conservative delivery never misses an event; overflow is written
// only by the producer during run phases and read/cleared only by the
// consumer during drain phases, with the window barrier providing the
// happens-before edge between the two (phase-alternating exclusive
// access, no atomics needed).
type spscRing struct {
	buf  []crossEvent
	mask uint64
	head atomic.Uint64 // next slot to pop (consumer-owned)
	tail atomic.Uint64 // next slot to push (producer-owned)

	// overflow spills posts beyond the ring's capacity.
	overflow []crossEvent
}

// newSPSCRing returns a ring holding up to capacity events in its
// lock-free tier; capacity is rounded up to a power of two.
func newSPSCRing(capacity int) *spscRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &spscRing{buf: make([]crossEvent, n), mask: uint64(n - 1)}
}

// pushSeq enqueues one event for the banded calendar position
// (at, seq). Producer side only (run phase).
func (q *spscRing) pushSeq(at Time, seq uint64, h EventHandler) {
	ev := crossEvent{at: at, seq: seq, h: h}
	tail := q.tail.Load()
	if tail-q.head.Load() < uint64(len(q.buf)) {
		q.buf[tail&q.mask] = ev
		q.tail.Store(tail + 1)
		return
	}
	q.overflow = append(q.overflow, ev)
}

// drainInto appends every queued event (ring, then overflow) to dst
// and empties the queue. Consumer side only (drain phase); the barrier
// between run and drain phases makes the producer's overflow writes
// visible and guarantees it is not pushing concurrently.
func (q *spscRing) drainInto(dst []crossEvent) []crossEvent {
	head := q.head.Load()
	tail := q.tail.Load()
	for ; head != tail; head++ {
		dst = append(dst, q.buf[head&q.mask])
	}
	q.head.Store(head)
	if len(q.overflow) > 0 {
		dst = append(dst, q.overflow...)
		q.overflow = q.overflow[:0]
	}
	return dst
}
