// Package coherence defines the vocabulary shared by all five protocol
// engines: cache block states, the taxonomy of coherence transactions,
// message kinds and sizes, and the latency-sample classification used
// for the paper's Figure 5 miss breakdown and Table 1 traversal counts.
package coherence

import "fmt"

// State is a cache block state. The paper's protocols all use the same
// three states (Section 3.1).
type State uint8

const (
	// Invalid: the block is not present in the cache.
	Invalid State = iota
	// ReadShared: present read-only; any number of caches may hold it.
	ReadShared
	// WriteExclusive: present read-write in exactly one cache; that
	// cache is the owner and the memory copy is stale.
	WriteExclusive
)

// String returns the paper's abbreviation for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "INV"
	case ReadShared:
		return "RS"
	case WriteExclusive:
		return "WE"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Op is a processor memory operation kind.
type Op uint8

const (
	// Load is a data read.
	Load Op = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch (assumed to always hit, per the
	// paper's Section 4.1 assumption).
	Ifetch
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	case Ifetch:
		return "ifetch"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Txn classifies a coherence transaction, mirroring the event types the
// paper's models consume.
type Txn uint8

const (
	// ReadMissClean: read miss satisfied by the home memory (dirty bit
	// clear).
	ReadMissClean Txn = iota
	// ReadMissDirty: read miss satisfied by a remote dirty owner.
	ReadMissDirty
	// WriteMissClean: write miss on a block with no dirty owner (may
	// still invalidate read-shared copies).
	WriteMissClean
	// WriteMissDirty: write miss on a block held write-exclusive
	// elsewhere.
	WriteMissDirty
	// Invalidation: an upgrade — the requester holds an RS copy and
	// only needs write permission (footnote 1 of the paper).
	Invalidation
	// WriteBack: replacement of a WE block, returning data to home.
	WriteBack
	numTxn
)

// NumTxn is the number of transaction classes.
const NumTxn = int(numTxn)

// String names the transaction class.
func (t Txn) String() string {
	switch t {
	case ReadMissClean:
		return "read-miss-clean"
	case ReadMissDirty:
		return "read-miss-dirty"
	case WriteMissClean:
		return "write-miss-clean"
	case WriteMissDirty:
		return "write-miss-dirty"
	case Invalidation:
		return "invalidation"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("Txn(%d)", uint8(t))
	}
}

// IsMiss reports whether the transaction stalls the processor (the
// paper's processors block on all misses and invalidations; write-backs
// are off the critical path).
func (t Txn) IsMiss() bool { return t != WriteBack }

// MissClass classifies a completed directory-protocol miss for the
// Figure 5 breakdown.
type MissClass uint8

const (
	// LocalOrHit: not a remote miss (local home supplied the data, or
	// the access hit). Excluded from the Figure 5 population.
	LocalOrHit MissClass = iota
	// OneCycleClean: remote miss on a clean block — one ring traversal.
	OneCycleClean
	// OneCycleDirty: remote miss on a dirty block whose owner sits on
	// the requester→home→owner→requester path, so a single traversal
	// (three hops) commits it.
	OneCycleDirty
	// TwoCycle: remaining remote misses, needing two ring traversals.
	TwoCycle
)

// String names the miss class with the paper's terminology.
func (c MissClass) String() string {
	switch c {
	case LocalOrHit:
		return "local"
	case OneCycleClean:
		return "1-cycle-clean"
	case OneCycleDirty:
		return "1-cycle-dirty"
	case TwoCycle:
		return "2-cycle"
	default:
		return fmt.Sprintf("MissClass(%d)", uint8(c))
	}
}

// MsgKind distinguishes the two ring message classes of Section 2: short
// probes and header+data block messages.
type MsgKind uint8

const (
	// Probe is a short request/control message (miss or invalidation
	// request, forward, ack).
	Probe MsgKind = iota
	// Block is a header plus one cache block of data.
	Block
)

// String names the message kind.
func (m MsgKind) String() string {
	if m == Probe {
		return "probe"
	}
	return "block"
}

// ProbePayloadBits is the size of a probe message: a block address plus
// control/routing information. The paper's frame geometry (10 stages on
// a 32-bit ring with 16-byte blocks, Table 3) pins this at 64 bits.
const ProbePayloadBits = 64

// Result describes how one data reference was satisfied. Protocol
// engines hand it to the completion callback; the core system and the
// experiment drivers aggregate it into the paper's statistics.
type Result struct {
	// Hit reports a cache hit (no protocol transaction at all).
	Hit bool
	// Txn is the transaction class for non-hits.
	Txn Txn
	// Local reports that the transaction was satisfied without using
	// the interconnect (clean block homed at the requesting node).
	Local bool
	// Class is the directory-protocol latency class (Figure 5); it is
	// LocalOrHit for hits, local misses and snooping-protocol events.
	Class MissClass
	// Traversals is the number of ring traversals the transaction
	// needed (Table 1); zero for hits and local misses.
	Traversals int
}
