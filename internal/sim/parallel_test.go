package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// logEntry is one observable action of a synthetic parallel model.
type logEntry struct {
	Shard int
	At    Time
	ID    uint64
}

// hopActor passes a token around a ring of shards: fire, log, post the
// token to the next shard one hop latency later. Real cross-partition
// traffic with an exactly computable schedule.
type hopActor struct {
	pk    *ParKernel
	shard int
	hop   Duration
	left  *int64
	log   *[]logEntry
	next  *hopActor
	id    uint64
}

func (a *hopActor) OnEvent(at Time) {
	*a.log = append(*a.log, logEntry{Shard: a.shard, At: at, ID: a.id})
	a.id += uint64(a.pk.Shards())
	if atomic.AddInt64(a.left, -1) <= 0 {
		return
	}
	// The hop count (the next holder's id) is unique per post, so it
	// makes a valid banded calendar position.
	a.pk.PostAt(a.shard, a.next.shard, at+a.hop, BoundarySeqBand|a.id, a.next)
}

// TestParKernelTokenRingExactSchedule checks a deterministic
// cross-partition chain against its analytically known schedule.
func TestParKernelTokenRingExactSchedule(t *testing.T) {
	const p = 4
	const hops = 41
	hop := 10 * Nanosecond // == window: every post lands exactly on the lookahead bound
	pk := NewParKernel(p, hop)
	logs := make([][]logEntry, p)
	left := int64(hops)
	actors := make([]*hopActor, p)
	for i := 0; i < p; i++ {
		actors[i] = &hopActor{pk: pk, shard: i, hop: hop, left: &left, log: &logs[i], id: uint64(i)}
	}
	for i := 0; i < p; i++ {
		actors[i].next = actors[(i+1)%p]
	}
	pk.Shard(0).AtEvent(0, actors[0])
	end := pk.Run()

	var all []logEntry
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].At < all[j].At })
	if len(all) != hops {
		t.Fatalf("fired %d hops, want %d", len(all), hops)
	}
	for i, e := range all {
		wantAt := Time(i) * hop
		wantShard := i % p
		if e.At != wantAt || e.Shard != wantShard {
			t.Fatalf("hop %d = shard %d at %v, want shard %d at %v", i, e.Shard, e.At, wantShard, wantAt)
		}
	}
	if want := Time(hops-1) * hop; end < want {
		t.Fatalf("Run returned %v, want >= %v", end, want)
	}
	st := pk.Stats()
	if st.CrossEvents != hops-1 {
		t.Fatalf("CrossEvents = %d, want %d", st.CrossEvents, hops-1)
	}
	if st.Windows == 0 || len(st.BarrierStallNS) != p {
		t.Fatalf("Stats = %+v", st)
	}
}

// chaosWindow is the lookahead used by the randomized model. Every
// message — local or cross-shard — is delayed by at least one window,
// so event timestamps are identical no matter how the actors are
// partitioned; only the transport (direct schedule vs banded SPSC
// post) changes with P.
const chaosWindow = 20 * Nanosecond

// chaosActor is one endpoint of the randomized model; its shard
// assignment depends on the partition count under test.
type chaosActor struct {
	pk    *ParKernel
	shard int
	peers []*chaosActor
	log   *[]logEntry
}

// chaosMsg dispatches one message. Everything it does — log, fan out,
// pick destinations and delays — derives deterministically from the
// message ID alone, never from delivery interleaving, so per-run
// behaviour is a pure function of the model for any P.
type chaosMsg struct {
	a  *chaosActor
	id uint64
}

func (m *chaosMsg) OnEvent(at Time) {
	a := m.a
	*a.log = append(*a.log, logEntry{Shard: a.shard, At: at, ID: m.id})
	rng := rand.New(rand.NewSource(int64(m.id)))
	depth := int(m.id >> 56)
	if depth >= 3 {
		return
	}
	fanout := 1 + rng.Intn(2)
	for f := 0; f < fanout; f++ {
		child := uint64(depth+1)<<56 | (m.id<<7+uint64(f)*2654435761)&(1<<56-1)
		dst := a.peers[rng.Intn(len(a.peers))]
		delay := chaosWindow + Duration(rng.Intn(50)+1)*Nanosecond
		cm := &chaosMsg{a: dst, id: child}
		if dst.shard == a.shard {
			a.pk.Shard(a.shard).AtEvent(at+delay, cm)
		} else {
			a.pk.PostAt(a.shard, dst.shard, at+delay, BoundarySeqBand|child, cm)
		}
	}
}

// runChaos executes the randomized model over p shards and returns the
// per-shard logs in execution order.
func runChaos(t *testing.T, p, actors int, seed int64) [][]logEntry {
	t.Helper()
	pk := NewParKernel(p, chaosWindow)
	logs := make([][]logEntry, p)
	as := make([]*chaosActor, actors)
	for i := range as {
		as[i] = &chaosActor{pk: pk, shard: i % p, log: &logs[i%p]}
	}
	for _, a := range as {
		a.peers = as
	}
	rng := rand.New(rand.NewSource(seed))
	for i, a := range as {
		root := uint64(i)*7919 + 1
		pk.Shard(a.shard).AtEvent(Duration(rng.Intn(30))*Nanosecond, &chaosMsg{a: a, id: root})
	}
	pk.Run()
	return logs
}

// TestParKernelDeterministicAcrossRuns requires byte-identical
// per-shard event logs — including same-instant tie order — across
// repeated multi-threaded runs of the same randomized model.
func TestParKernelDeterministicAcrossRuns(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		base := runChaos(t, p, 24, 42)
		for rep := 0; rep < 3; rep++ {
			got := runChaos(t, p, 24, 42)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("P=%d rep %d: per-shard logs diverged across identical runs", p, rep)
			}
		}
	}
}

// TestParKernelMatchesSequentialReference cross-checks parallel runs
// against the same model executed on a single merged kernel: the
// fired (message, time) multiset must match exactly. (Per-shard seq
// interleaving legitimately differs; the model's observable behaviour
// must not.)
func TestParKernelMatchesSequentialReference(t *testing.T) {
	canon := func(logs [][]logEntry) []string {
		var out []string
		for _, l := range logs {
			for _, e := range l {
				out = append(out, fmt.Sprintf("%d@%d", e.ID, e.At))
			}
		}
		sort.Strings(out)
		return out
	}
	for _, seed := range []int64{1, 7, 1993} {
		seq := canon(runChaos(t, 1, 24, seed))
		if len(seq) == 0 {
			t.Fatalf("seed %d: sequential reference fired nothing", seed)
		}
		for _, p := range []int{2, 4, 8} {
			par := canon(runChaos(t, p, 24, seed))
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("seed %d: P=%d fired different events than sequential (%d vs %d)",
					seed, p, len(par), len(seq))
			}
		}
	}
}

// TestParKernelLookaheadViolationPanics pins the loud-failure
// contract: posting a cross event inside the current window must
// panic, and the panic must surface from Run on the caller goroutine.
func TestParKernelLookaheadViolationPanics(t *testing.T) {
	pk := NewParKernel(2, 100*Nanosecond)
	evil := &funcHandler{}
	evil.fn = func(at Time) {
		pk.PostAt(0, 1, at+1, BoundarySeqBand, evil) // far inside the window: violation
	}
	pk.Shard(0).AtEvent(0, evil)
	pk.Shard(1).AtEvent(0, &funcHandler{fn: func(Time) {}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic = %v, want lookahead violation", r)
		}
	}()
	pk.Run()
}

type funcHandler struct{ fn func(Time) }

func (f *funcHandler) OnEvent(at Time) { f.fn(at) }

// TestSPSCRingOrderAndOverflow exercises the pair queue through its
// overflow path and checks FIFO order and the banded seqs survive.
func TestSPSCRingOrderAndOverflow(t *testing.T) {
	q := newSPSCRing(8)
	h := &funcHandler{fn: func(Time) {}}
	const n = 50 // well past the 8-slot lock-free tier
	for i := 0; i < n; i++ {
		q.pushSeq(Time(i), BoundarySeqBand|uint64(i), h)
	}
	got := q.drainInto(nil)
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i, ev := range got {
		if want := BoundarySeqBand | uint64(i); ev.at != Time(i) || ev.seq != want {
			t.Fatalf("event %d = {at:%v seq:%#x}, want {at:%v seq:%#x}", i, ev.at, ev.seq, Time(i), want)
		}
	}
	if extra := q.drainInto(nil); len(extra) != 0 {
		t.Fatalf("second drain returned %d events", len(extra))
	}
}

// TestParKernelWindowHotPathZeroAlloc guards the window scheduler's
// steady state: posting through the SPSC tier, delivering the batch
// into the destination kernel, and dispatching it must not allocate
// once capacities have warmed.
func TestParKernelWindowHotPathZeroAlloc(t *testing.T) {
	pk := NewParKernel(2, 10*Nanosecond)
	h := &funcHandler{fn: func(Time) {}}
	q := pk.queues[0*2+1]
	k := pk.Shard(1)
	at := Time(0)
	cycle := func() {
		for i := 0; i < 16; i++ {
			at++
			q.pushSeq(at, BoundarySeqBand|uint64(at), h)
		}
		pk.deliver(1)
		k.Run()
	}
	for i := 0; i < 32; i++ {
		cycle() // warm slab, buckets, scratch
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs > 0 {
		t.Fatalf("window post+deliver+dispatch cycle allocates %v times per run, want 0", allocs)
	}
}

// bandedPost is one cross-shard event of the drain-order test: fire
// at (at, seq) on the sink shard and log id.
type bandedPost struct {
	at  Time
	seq uint64
	id  uint64
}

// runBandedPosts runs three shards: at time 0, shard 0 posts byShard[0]
// and shard 1 posts byShard[1] to shard 2, each in slice order. It
// returns shard 2's dispatch log.
func runBandedPosts(byShard [2][]bandedPost) []logEntry {
	const window = 10 * Nanosecond
	pk := NewParKernel(3, window)
	var log []logEntry
	for src := 0; src < 2; src++ {
		src := src
		pk.Shard(src).AtEvent(0, &funcHandler{fn: func(Time) {
			for _, ev := range byShard[src] {
				id := ev.id
				pk.PostAt(src, 2, ev.at, ev.seq, &funcHandler{fn: func(at Time) {
					log = append(log, logEntry{Shard: 2, At: at, ID: id})
				}})
			}
		}})
	}
	pk.Run()
	return log
}

// TestParKernelBandedDeliveryIgnoresDrainOrder pins the property that
// lets delivery skip sorting: the same banded events, posted from two
// source shards in different orders and split differently between the
// shards, fire on the destination in one order — (time, seq) — because
// each lands at its own calendar position.
func TestParKernelBandedDeliveryIgnoresDrainOrder(t *testing.T) {
	var evs []bandedPost
	for i := 0; i < 12; i++ {
		// Four instants, three events each, with seqs deliberately out
		// of step with the ids so ties exercise the seq order.
		at := Time(10+10*(i%4)) * Nanosecond
		evs = append(evs, bandedPost{at: at, seq: BoundarySeqBand | uint64((i*7)%12), id: uint64(i)})
	}
	var forward, backward [2][]bandedPost
	for i, ev := range evs {
		forward[i%2] = append(forward[i%2], ev)
		// The other split, each shard posting in reverse.
		backward[(i/2)%2] = append([]bandedPost{ev}, backward[(i/2)%2]...)
	}
	a, b := runBandedPosts(forward), runBandedPosts(backward)
	if len(a) != len(evs) {
		t.Fatalf("dispatched %d events, want %d", len(a), len(evs))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("dispatch order depends on posting order:\n%v\n%v", a, b)
	}
	want := append([]bandedPost(nil), evs...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, e := range a {
		if e.At != want[i].at || e.ID != want[i].id {
			t.Fatalf("dispatch %d = id %d at %v, want id %d at %v (time, seq order)",
				i, e.ID, e.At, want[i].id, want[i].at)
		}
	}
}
