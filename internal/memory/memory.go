// Package memory models the distributed shared memory of the study:
// the physical memory is partitioned among the processing nodes, with
// shared pages allocated to homes at page granularity (the paper uses
// random allocation, which is what makes the fraction of remote clean
// misses grow with system size — Section 4.2). Each home keeps a dirty
// bit per block plus the directory state used by the directory-based
// protocols: a full-map presence vector and an SCI-style sharing list
// head. Bank access time is the paper's fixed 140 ns.
package memory

import (
	"errors"
	"math/bits"

	"repro/internal/sim"
)

// BankTime is the fixed local memory bank access time used throughout
// the paper (Section 4.1).
const BankTime = 140 * sim.Nanosecond

// HomeMap assigns block addresses to home nodes at page granularity.
type HomeMap struct {
	nodes     int
	pageBytes int
	// table maps page index -> home; built lazily for the address
	// range actually touched, seeded-random like the paper's OS page
	// placement.
	table map[uint64]int
	rng   *sim.Rand
	hint  func(addr uint64) (int, bool)
	// hashed selects stateless placement: each unhinted page's home is
	// a hash of its page number and hashSeed, never the rng stream.
	hashed   bool
	hashSeed uint64
}

// SetHint installs a placement hint consulted before random placement:
// when it returns (node, true) with a valid node, the page is pinned
// there. Used to home private data at its owning processor while
// shared pages stay randomly allocated, as in the paper.
func (h *HomeMap) SetHint(hint func(addr uint64) (int, bool)) { h.hint = hint }

// CheckPageBytes reports whether pageBytes is a usable placement
// granularity: a positive power of two.
func CheckPageBytes(pageBytes int) error {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return errors.New("memory: page size must be a positive power of two")
	}
	return nil
}

// NewHomeMap returns a page-granular random home mapping over the given
// number of nodes. pageBytes must be a power of two.
func NewHomeMap(nodes, pageBytes int, rng *sim.Rand) *HomeMap {
	if nodes <= 0 {
		panic("memory: need at least one node")
	}
	if err := CheckPageBytes(pageBytes); err != nil {
		panic(err)
	}
	return &HomeMap{nodes: nodes, pageBytes: pageBytes, table: make(map[uint64]int), rng: rng}
}

// NewHashedHomeMap returns a page-granular placement that derives each
// unhinted page's home from a hash of the page number and seed. Unlike
// the rng stream (consumed in first-touch order, a whole-run
// interleaving), the hash is a pure function of the address, so
// independent partitions of a machine compute identical placements —
// which is what lets partitioned runs of the segmented interconnect
// share one consistent memory layout without coordination. The
// distribution is as uniform as the rng's, just differently seeded, so
// it models the same random OS placement.
func NewHashedHomeMap(nodes, pageBytes int, seed uint64) *HomeMap {
	h := NewHomeMap(nodes, pageBytes, nil)
	h.hashed = true
	h.hashSeed = seed
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Nodes returns the number of nodes in the mapping.
func (h *HomeMap) Nodes() int { return h.nodes }

// Home returns the home node of addr. The first touch of a page fixes
// its placement for the rest of the run.
func (h *HomeMap) Home(addr uint64) int {
	page := addr / uint64(h.pageBytes)
	if home, ok := h.table[page]; ok {
		return home
	}
	var home int
	if n, ok := h.hintFor(addr); ok {
		home = n
	} else if h.hashed {
		home = int(mix64(page^h.hashSeed) % uint64(h.nodes))
	} else if h.rng != nil {
		home = h.rng.Intn(h.nodes)
	} else {
		home = int(page % uint64(h.nodes)) // deterministic round-robin fallback
	}
	h.table[page] = home
	return home
}

func (h *HomeMap) hintFor(addr uint64) (int, bool) {
	if h.hint == nil {
		return 0, false
	}
	n, ok := h.hint(addr)
	if !ok || n < 0 || n >= h.nodes {
		return 0, false
	}
	return n, true
}

// Place pins a page containing addr to a specific home (used by
// workloads that model private data living on the owning node).
func (h *HomeMap) Place(addr uint64, home int) {
	if home < 0 || home >= h.nodes {
		panic("memory: home out of range")
	}
	h.table[addr/uint64(h.pageBytes)] = home
}

// DirtyBit is the state a snooping protocol keeps in main memory for
// one block: whether some cache holds it dirty, and which one.
type DirtyBit struct {
	Dirty bool
	Owner int
}

// DirtyBits holds the dirty bits of the blocks touched so far.
type DirtyBits map[uint64]*DirtyBit

// Of returns block's dirty bit, clean and unowned on first touch.
func (d DirtyBits) Of(block uint64) *DirtyBit {
	m := d[block]
	if m == nil {
		m = &DirtyBit{Owner: -1}
		d[block] = m
	}
	return m
}

// Line is the per-block directory record kept at the home node.
type Line struct {
	// Dirty is set when exactly one cache holds the block WE.
	Dirty bool
	// Owner is the dirty node when Dirty is set.
	Owner int
	// presence is the full-map bit vector of sharers (including the
	// owner when dirty). Supports up to 64 nodes, the paper's maximum.
	presence uint64
	// Head is the SCI-style sharing-list head node, -1 when uncached.
	// Maintained in parallel with the full map so that the linked-list
	// protocol comparison (Table 1) shares one directory store.
	Head int
	// next[i] is node i's successor in the sharing list, -1 at the
	// tail. A fixed array (valid only for present sharers) rather than
	// a map: it keeps Line pointer-free, so directory storage is
	// invisible to the garbage collector.
	next [64]int8
}

// lineChunkSize is how many Lines a directory allocates at once; lines
// are handed out of chunks so each block record is not an individual
// heap object.
const lineChunkSize = 256

// Directory is the home-node directory for all blocks homed at one node.
type Directory struct {
	lines map[uint64]*Line
	chunk []Line // current allocation chunk (pointers into it are stable)
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lines: make(map[uint64]*Line)}
}

// Line returns the record for block, creating a clean, uncached record
// on first touch.
func (d *Directory) Line(block uint64) *Line {
	ln := d.lines[block]
	if ln == nil {
		if len(d.chunk) == 0 {
			d.chunk = make([]Line, lineChunkSize)
		}
		ln = &d.chunk[0]
		d.chunk = d.chunk[1:]
		ln.Head = -1
		d.lines[block] = ln
	}
	return ln
}

// Sharers returns the nodes with the presence bit set, ascending.
func (l *Line) Sharers() []int {
	var out []int
	p := l.presence
	for p != 0 {
		n := bits.TrailingZeros64(p)
		out = append(out, n)
		p &^= 1 << uint(n)
	}
	return out
}

// NumSharers returns the presence-bit population count.
func (l *Line) NumSharers() int { return bits.OnesCount64(l.presence) }

// HasSharer reports whether node's presence bit is set.
func (l *Line) HasSharer(node int) bool { return l.presence&(1<<uint(node)) != 0 }

// AddSharer sets node's presence bit and links it at the head of the
// SCI sharing list (SCI prepends new sharers, making the home's head
// pointer point at the most recent requester).
func (l *Line) AddSharer(node int) {
	if node < 0 || node >= 64 {
		panic("memory: sharer out of supported range [0,64)")
	}
	if l.HasSharer(node) {
		return
	}
	l.presence |= 1 << uint(node)
	l.next[node] = int8(l.Head)
	l.Head = node
}

// RemoveSharer clears node's presence bit and unlinks it from the
// sharing list.
func (l *Line) RemoveSharer(node int) {
	if !l.HasSharer(node) {
		return
	}
	l.presence &^= 1 << uint(node)
	if l.Head == node {
		l.Head = int(l.next[node])
	} else {
		for cur := l.Head; cur >= 0; cur = int(l.next[cur]) {
			if int(l.next[cur]) == node {
				l.next[cur] = l.next[node]
				break
			}
		}
	}
	if l.Dirty && l.Owner == node {
		l.Dirty = false
	}
}

// ClearSharers resets the block to uncached-clean. Stale next entries
// need no clearing: the list is only reachable through Head and the
// presence bits.
func (l *Line) ClearSharers() {
	l.presence = 0
	l.Dirty = false
	l.Head = -1
}

// SetDirty marks node as the exclusive dirty owner: the presence vector
// collapses to that single node.
func (l *Line) SetDirty(node int) {
	l.ClearSharers()
	l.AddSharer(node)
	l.Dirty = true
	l.Owner = node
}

// List returns the sharing list in SCI order (head first).
func (l *Line) List() []int {
	var out []int
	for cur := l.Head; cur >= 0; cur = int(l.next[cur]) {
		out = append(out, cur)
		if len(out) > 64 {
			panic("memory: sharing list cycle")
		}
	}
	return out
}

// Bank is one node's memory bank: a single server with the paper's
// fixed 140 ns access time.
type Bank struct {
	res *sim.Resource
}

// NewBank returns a memory bank attached to kernel k.
func NewBank(k *sim.Kernel, name string) *Bank {
	return &Bank{res: sim.NewResource(k, name, 1)}
}

// Access queues one 140 ns bank access; done runs when it completes.
func (b *Bank) Access(done func()) { b.res.Use(BankTime, done) }

// Utilization reports the bank's time-averaged utilization.
func (b *Bank) Utilization() float64 { return b.res.Utilization() }

// MeanWait reports the average queueing delay at the bank.
func (b *Bank) MeanWait() sim.Time { return b.res.MeanWait() }
