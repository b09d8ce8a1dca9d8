// Package node holds the processing nodes every coherence engine runs
// on. The paper compares its protocols on identical nodes — the same
// 128 KB direct-mapped cache, the same 140 ns memory bank, the same
// page placement — and only the way a miss travels differs. A Set
// builds those nodes once: their caches, their banks, the page-to-home
// map and the write-back counters. Its Access does the cache lookup
// and hands misses and upgrades to the engine bound to it.
package node

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/sim"
)

// CacheSupplyTime is the time for a dirty owner to fetch a block from
// its cache for a cache-to-cache transfer. The paper lumps "the time to
// fetch the block in the remote memory or cache" together, so this
// matches the 140 ns memory bank time.
const CacheSupplyTime = memory.BankTime

// Engine is a coherence protocol's entry points: a read or write miss,
// and an upgrade of a shared copy to write permission. done fires at
// completion time with the transaction's classification.
type Engine interface {
	Miss(node int, block uint64, write bool, done func(at sim.Time, res coherence.Result))
	Upgrade(node int, block uint64, done func(at sim.Time, res coherence.Result))
}

// Set is the nodes [Lo, Hi) of a machine of len(Caches) nodes. Only
// those nodes get a cache and a bank; a partition's engine that touches
// a node outside its range hits a nil cache or bank at once instead of
// silently corrupting a peer partition's state.
type Set struct {
	K      *sim.Kernel
	Home   *memory.HomeMap
	Caches []*cache.Cache
	Banks  []*memory.Bank
	Lo, Hi int

	wb  []uint64
	eng Engine
}

// New returns the nodes [lo, hi) of a machine with home.Nodes() nodes,
// each with a cache of geometry c (zero: the paper's) and a memory bank
// on k.
func New(k *sim.Kernel, home *memory.HomeMap, c cache.Config, lo, hi int) *Set {
	n := home.Nodes()
	s := &Set{
		K:      k,
		Home:   home,
		Caches: make([]*cache.Cache, n),
		Banks:  make([]*memory.Bank, n),
		Lo:     lo,
		Hi:     hi,
		wb:     make([]uint64, n),
	}
	for i := lo; i < hi; i++ {
		s.Caches[i] = cache.New(c)
		s.Banks[i] = memory.NewBank(k, "mem")
	}
	return s
}

// Whole reports whether the set holds every node of the machine.
func (s *Set) Whole() bool { return s.Lo == 0 && s.Hi == len(s.Caches) }

// Bind makes e the engine the set's misses and upgrades go to. An
// engine's constructor binds itself.
func (s *Set) Bind(e Engine) {
	if s.eng != nil {
		panic("node: set already serves an engine")
	}
	s.eng = e
}

// Access performs one data reference for node. Hits complete
// synchronously; everything else goes to the bound engine.
func (s *Set) Access(node int, addr uint64, write bool, done func(at sim.Time, res coherence.Result)) {
	c := s.Caches[node]
	block := c.BlockAddr(addr)
	switch c.Lookup(addr, write) {
	case cache.Hit:
		done(s.K.Now(), coherence.Result{Hit: true})
	case cache.MissRead:
		s.eng.Miss(node, block, false, done)
	case cache.MissWrite:
		s.eng.Miss(node, block, true, done)
	case cache.Upgrade:
		s.eng.Upgrade(node, block, done)
	}
}

// HasBlock reports whether node currently caches the block containing
// addr in a readable state (RS or WE). The core's write-buffer model
// uses it to decide whether a load can bypass an outstanding store.
func (s *Set) HasBlock(node int, addr uint64) bool {
	c := s.Caches[node]
	return c.State(c.BlockAddr(addr)) != coherence.Invalid
}

// Fill installs block at node in state st and returns the displaced
// victim. A dirty victim counts as one of node's write-backs; the
// engine sends it home.
func (s *Set) Fill(node int, block uint64, st coherence.State) cache.Victim {
	v := s.Caches[node].Fill(block, st)
	if v.Valid && v.Dirty {
		s.wb[node]++
	}
	return v
}

// Fetch runs then once node has read a block to supply it: from its
// cache after CacheSupplyTime when it is the dirty owner, else from
// its memory bank, queued behind the bank's other accesses.
func (s *Set) Fetch(node int, fromCache bool, then func()) {
	if fromCache {
		s.K.After(CacheSupplyTime, then)
	} else {
		s.Banks[node].Access(then)
	}
}

// WriteBacksOf returns the write-backs caused by node's own evictions;
// the core's per-processor warmup gating reads it.
func (s *Set) WriteBacksOf(node int) uint64 { return s.wb[node] }
