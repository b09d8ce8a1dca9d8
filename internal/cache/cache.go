// Package cache implements the per-processor data cache of the study:
// direct-mapped, write-back, write-invalidate, with the three block
// states of the paper's protocols (INV / RS / WE). The default geometry
// is the paper's: 128 Kbyte, 16-byte blocks.
//
// The cache is a passive structure — protocol engines drive all state
// transitions. Lookup/Probe report what an access would do; the engine
// then applies Fill/Invalidate/Downgrade/Upgrade as the protocol
// dictates, so the same cache serves every engine.
package cache

import (
	"errors"
	"fmt"

	"repro/internal/coherence"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total data capacity. Default 128 KB.
	SizeBytes int
	// BlockBytes is the block (line) size. Default 16.
	BlockBytes int
}

// DefaultConfig is the paper's cache geometry.
var DefaultConfig = Config{SizeBytes: 128 << 10, BlockBytes: 16}

func (c *Config) fill() {
	if c.SizeBytes == 0 {
		c.SizeBytes = DefaultConfig.SizeBytes
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = DefaultConfig.BlockBytes
	}
}

// Validate reports whether the geometry, zero fields taking the
// paper's defaults, is one a direct-mapped cache can have.
func (c Config) Validate() error {
	c.fill()
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 {
		return errors.New("cache: non-positive geometry")
	}
	if c.SizeBytes%c.BlockBytes != 0 {
		return errors.New("cache: size not a multiple of block size")
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return errors.New("cache: block size must be a power of two")
	}
	sets := c.SizeBytes / c.BlockBytes
	if sets&(sets-1) != 0 {
		return errors.New("cache: set count must be a power of two")
	}
	return nil
}

// line is one direct-mapped frame.
type line struct {
	tag   uint64
	state coherence.State
}

// Cache is a direct-mapped write-back cache.
type Cache struct {
	cfg        Config
	lines      []line
	blockShift uint
	setMask    uint64

	// Statistics.
	Accesses  uint64
	Hits      uint64
	UpgradeRq uint64 // hits in RS needing write permission
}

// New returns a cache with the given geometry (zero fields take the
// paper's defaults).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	sets := cfg.SizeBytes / cfg.BlockBytes
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, sets),
		setMask: uint64(sets - 1),
	}
	for bs := cfg.BlockBytes; bs > 1; bs >>= 1 {
		c.blockShift++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) index(block uint64) int {
	return int((block >> c.blockShift) & c.setMask)
}

// Outcome describes what a processor access needs from the coherence
// protocol.
type Outcome uint8

const (
	// Hit: the access completes locally with no protocol action.
	Hit Outcome = iota
	// MissRead: the block must be obtained in RS state.
	MissRead
	// MissWrite: the block must be obtained in WE state.
	MissWrite
	// Upgrade: block present in RS; write permission must be obtained
	// (an "invalidation" in the paper's terminology).
	Upgrade
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissRead:
		return "miss-read"
	case MissWrite:
		return "miss-write"
	case Upgrade:
		return "upgrade"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Victim describes a block displaced by a fill.
type Victim struct {
	// Block is the block-aligned address displaced.
	Block uint64
	// Dirty reports whether the victim was write-exclusive and must be
	// written back.
	Dirty bool
	// Valid reports whether there was a victim at all.
	Valid bool
}

// Lookup classifies an access without changing cache state. For hits it
// also performs the RS→WE silent transition check: a store that hits in
// RS is an Upgrade, not a Hit.
func (c *Cache) Lookup(addr uint64, write bool) Outcome {
	c.Accesses++
	block := c.BlockAddr(addr)
	ln := &c.lines[c.index(block)]
	if ln.state == coherence.Invalid || ln.tag != block {
		if write {
			return MissWrite
		}
		return MissRead
	}
	if write && ln.state == coherence.ReadShared {
		c.UpgradeRq++
		return Upgrade
	}
	c.Hits++
	return Hit
}

// State returns the state of the frame currently holding block, or
// Invalid if the block is not resident.
func (c *Cache) State(block uint64) coherence.State {
	ln := &c.lines[c.index(block)]
	if ln.tag != block {
		return coherence.Invalid
	}
	return ln.state
}

// Fill installs block in the given state and returns the displaced
// victim, if any. Filling over the same block just updates the state.
func (c *Cache) Fill(block uint64, st coherence.State) Victim {
	if st == coherence.Invalid {
		panic("cache: fill with Invalid state")
	}
	ln := &c.lines[c.index(block)]
	var v Victim
	if ln.state != coherence.Invalid && ln.tag != block {
		v = Victim{Block: ln.tag, Dirty: ln.state == coherence.WriteExclusive, Valid: true}
	}
	ln.tag = block
	ln.state = st
	return v
}

// Invalidate drops block if resident, returning its previous state.
func (c *Cache) Invalidate(block uint64) coherence.State {
	ln := &c.lines[c.index(block)]
	if ln.tag != block || ln.state == coherence.Invalid {
		return coherence.Invalid
	}
	prev := ln.state
	ln.state = coherence.Invalid
	return prev
}

// Downgrade moves a WE block to RS (remote read miss hitting the dirty
// owner). It reports whether the block was resident in WE.
func (c *Cache) Downgrade(block uint64) bool {
	ln := &c.lines[c.index(block)]
	if ln.tag != block || ln.state != coherence.WriteExclusive {
		return false
	}
	ln.state = coherence.ReadShared
	return true
}

// Upgrade moves an RS block to WE (invalidation acknowledged). It
// reports whether the block was resident in RS.
func (c *Cache) Upgrade(block uint64) bool {
	ln := &c.lines[c.index(block)]
	if ln.tag != block || ln.state != coherence.ReadShared {
		return false
	}
	ln.state = coherence.WriteExclusive
	return true
}

// HitRate returns the fraction of accesses that hit (upgrades count as
// non-hits: the processor blocks on them).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Occupancy counts resident blocks per state, for diagnostics.
func (c *Cache) Occupancy() (rs, we int) {
	for i := range c.lines {
		switch c.lines[i].state {
		case coherence.ReadShared:
			rs++
		case coherence.WriteExclusive:
			we++
		}
	}
	return rs, we
}
