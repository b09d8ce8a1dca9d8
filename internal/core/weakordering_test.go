package core

import (
	"encoding/json"
	"testing"

	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestNonBlockingStoreDoesNotStall(t *testing.T) {
	// One store miss followed by unrelated ifetch work: with the write
	// buffer the processor keeps going, so execution time is the pure
	// compute time plus only the final drain.
	mk := func(nb bool) *Metrics {
		streams := [][]trace.Ref{{
			st(0x2000_0000_0000),
			ifetch(), ifetch(), ifetch(), ifetch(),
		}}
		return NewSystem(Config{
			Protocol:          SnoopRing,
			ProcCycle:         10 * sim.Nanosecond,
			NonBlockingStores: nb,
		}, newScript(streams)).Run()
	}
	blocking := mk(false)
	weak := mk(true)
	if weak.ExecTime >= blocking.ExecTime {
		t.Fatalf("weak ordering exec %v >= blocking %v", weak.ExecTime, blocking.ExecTime)
	}
	if weak.BufferedStores != 1 {
		t.Fatalf("BufferedStores = %d, want 1", weak.BufferedStores)
	}
	if weak.StallTime != 0 {
		t.Fatalf("weak run stalled %v on a buffered store", weak.StallTime)
	}
	// The drain still waits for the store: exec covers its completion.
	if weak.ExecTime <= 5*10*sim.Nanosecond {
		t.Fatalf("exec %v did not include the store drain", weak.ExecTime)
	}
}

func TestWriteBufferCoalescesSameBlock(t *testing.T) {
	// Two stores to the same block while the first is in flight: one
	// transaction only.
	streams := [][]trace.Ref{{
		st(0x2000_0000_0000),
		st(0x2000_0000_0008), // same 16B block
		ifetch(),
	}}
	m := NewSystem(Config{
		Protocol:          SnoopRing,
		ProcCycle:         10 * sim.Nanosecond,
		NonBlockingStores: true,
	}, newScript(streams)).Run()
	if m.BufferedStores != 1 {
		t.Fatalf("BufferedStores = %d, want 1 (coalesced)", m.BufferedStores)
	}
	if got := m.TxnCount[coherence.WriteMissClean]; got != 1 {
		t.Fatalf("write-miss transactions = %d, want 1", got)
	}
}

func TestLoadMergesWithInFlightStoreMiss(t *testing.T) {
	// A load to a block being acquired by a buffered store miss must
	// merge (one transaction), stalling only until the fill.
	streams := [][]trace.Ref{{
		st(0x2000_0000_0000),
		ld(0x2000_0000_0000),
	}}
	m := NewSystem(Config{
		Protocol:          SnoopRing,
		ProcCycle:         10 * sim.Nanosecond,
		NonBlockingStores: true,
	}, newScript(streams)).Run()
	if m.BufferedStores != 1 {
		t.Fatalf("BufferedStores = %d, want 1", m.BufferedStores)
	}
	total := m.TxnCount[coherence.WriteMissClean] + m.TxnCount[coherence.ReadMissClean]
	if total != 1 {
		t.Fatalf("transactions = %d, want 1 (load merged)", total)
	}
	if m.Hits != 1 {
		t.Fatalf("Hits = %d, want 1 (the merged load)", m.Hits)
	}
	if m.StallTime == 0 {
		t.Fatal("merged load should stall until the fill")
	}
}

func TestLoadBypassesInFlightUpgrade(t *testing.T) {
	// Read then buffered upgrade then another read: the RS copy is
	// readable during the in-flight upgrade, so the second read hits
	// without stalling.
	streams := [][]trace.Ref{{
		ld(0x2000_0000_0000), // miss, fills RS
		st(0x2000_0000_0000), // buffered upgrade
		ld(0x2000_0000_0000), // bypasses: plain hit
	}}
	m := NewSystem(Config{
		Protocol:          SnoopRing,
		ProcCycle:         10 * sim.Nanosecond,
		NonBlockingStores: true,
	}, newScript(streams)).Run()
	if m.Upgrades != 1 || m.BufferedStores != 1 {
		t.Fatalf("upgrades/buffered = %d/%d, want 1/1", m.Upgrades, m.BufferedStores)
	}
	if m.Hits != 1 {
		t.Fatalf("Hits = %d, want 1 (bypassing load)", m.Hits)
	}
}

func TestWriteBufferDepthLimitsOutstanding(t *testing.T) {
	// With depth 1, a second store to a different block must fall back
	// to blocking.
	var refs []trace.Ref
	refs = append(refs, st(0x2000_0000_0000), st(0x2000_0001_0000))
	m := NewSystem(Config{
		Protocol:          SnoopRing,
		ProcCycle:         10 * sim.Nanosecond,
		NonBlockingStores: true,
		WriteBufferDepth:  1,
	}, newScript([][]trace.Ref{refs})).Run()
	if m.BufferedStores != 1 {
		t.Fatalf("BufferedStores = %d, want 1 (second store blocked)", m.BufferedStores)
	}
	if m.MissLatency.N() != 1 {
		t.Fatalf("blocking misses = %d, want 1", m.MissLatency.N())
	}
}

// TestNonBlockingStoresOnSharedData runs MP3D, whose processors share
// data, with the write buffer on, once per protocol. Several requests
// per node are then outstanding at once, some of them for a block
// already in flight (a store that finds the buffer full blocks and
// misses again). Every transaction must complete and be counted
// exactly once, and the run must be reproducible.
func TestNonBlockingStoresOnSharedData(t *testing.T) {
	for _, proto := range []Protocol{SnoopRing, DirectoryRing} {
		t.Run(proto.String(), func(t *testing.T) {
			run := func() *Metrics {
				gen := workload.NewGenerator(workload.Config{
					Profile: workload.MustProfile("MP3D", 16), DataRefsPerCPU: 1500, Seed: 5})
				return NewSystem(Config{
					Protocol: proto, Seed: 3, NonBlockingStores: true, WriteBufferDepth: 2,
				}, gen).Run()
			}
			m := run()
			if m.BufferedStores == 0 {
				t.Fatal("no store retired through the write buffer")
			}
			var txns uint64
			for _, c := range m.TxnCount {
				txns += c
			}
			if want := m.SharedMisses + m.PrivateMisses + m.Upgrades; txns != want {
				t.Fatalf("transactions = %d, misses + upgrades = %d", txns, want)
			}
			if n := m.MissLatency.N() + m.InvLatency.N() + m.BufferedLatency.N(); n != txns {
				t.Fatalf("latency samples = %d, transactions = %d", n, txns)
			}
			a, _ := json.Marshal(m.Snapshot())
			b, _ := json.Marshal(run().Snapshot())
			if string(a) != string(b) {
				t.Fatal("two identical runs differ")
			}
		})
	}
}

func TestHierRingThroughCoreDefaultsClusters(t *testing.T) {
	prof := workload.MustProfile("MP3D", 16)
	gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 300, Seed: 9})
	m := NewSystem(Config{Protocol: HierRing}, gen).Run() // Clusters defaults to 4
	if m.SharedMisses == 0 || m.NetworkUtil <= 0 {
		t.Fatalf("hier defaults run broken: %+v", m.SharedMisses)
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown protocol did not panic")
		}
	}()
	NewSystem(Config{Protocol: Protocol(99)}, newScript([][]trace.Ref{{ifetch()}}))
}

func TestProtocolStringUnknown(t *testing.T) {
	if Protocol(99).String() != "Protocol(99)" {
		t.Fatalf("unknown protocol string = %q", Protocol(99).String())
	}
}

func TestWarmupExcludesColdStart(t *testing.T) {
	prof := workload.MustProfile("MP3D", 8)
	run := func(warm int) *Metrics {
		gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 1200, Seed: 4})
		return NewSystem(Config{Protocol: SnoopRing, WarmupDataRefs: warm, Seed: 2}, gen).Run()
	}
	all := run(0)
	warm := run(600)
	// The warm window must count exactly the post-warmup data refs.
	if warm.DataRefs != 8*600 {
		t.Fatalf("warm DataRefs = %d, want 4800", warm.DataRefs)
	}
	// Cold-start misses inflate the unwarmed miss rate.
	if warm.TotalMissRate() >= all.TotalMissRate() {
		t.Fatalf("warmup did not reduce measured miss rate: %.4f vs %.4f",
			warm.TotalMissRate(), all.TotalMissRate())
	}
}
