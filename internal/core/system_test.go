package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scriptSource is a fixed per-CPU script for deterministic tests.
type scriptSource struct {
	streams [][]trace.Ref
	pos     []int
}

func newScript(streams [][]trace.Ref) *scriptSource {
	return &scriptSource{streams: streams, pos: make([]int, len(streams))}
}

func (s *scriptSource) NumCPUs() int { return len(s.streams) }

func (s *scriptSource) Next(cpu int) (trace.Ref, bool) {
	if s.pos[cpu] >= len(s.streams[cpu]) {
		return trace.Ref{}, false
	}
	r := s.streams[cpu][s.pos[cpu]]
	s.pos[cpu]++
	return r, true
}

func ld(addr uint64) trace.Ref { return trace.Ref{Op: coherence.Load, Shared: true, Addr: addr} }
func st(addr uint64) trace.Ref { return trace.Ref{Op: coherence.Store, Shared: true, Addr: addr} }
func ifetch() trace.Ref        { return trace.Ref{Op: coherence.Ifetch, Addr: 0x1000_0000} }

func TestProtocolStrings(t *testing.T) {
	names := map[Protocol]string{
		SnoopRing: "snoop-ring", DirectoryRing: "directory-ring",
		SCIRing: "sci-ring", SnoopBus: "snoop-bus",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestPureComputeWorkload(t *testing.T) {
	// Two CPUs, only instruction fetches: execution time is exactly
	// refs × cycle and utilization is 1.
	streams := [][]trace.Ref{
		{ifetch(), ifetch(), ifetch()},
		{ifetch()},
	}
	s := NewSystem(Config{Protocol: SnoopRing, ProcCycle: 10 * sim.Nanosecond}, newScript(streams))
	m := s.Run()
	if m.ExecTime != 30*sim.Nanosecond {
		t.Fatalf("ExecTime = %v, want 30ns", m.ExecTime)
	}
	if m.InstrRefs != 4 || m.DataRefs != 0 {
		t.Fatalf("refs = %d instr / %d data, want 4/0", m.InstrRefs, m.DataRefs)
	}
	if u := m.ProcUtil(); u != 1 {
		t.Fatalf("ProcUtil = %v, want 1 (no stalls)", u)
	}
}

func TestMissStallsAccounting(t *testing.T) {
	// One CPU, one shared load (a miss): utilization below 1, one miss
	// recorded with positive latency.
	streams := [][]trace.Ref{{ld(0x2000_0000_0000)}}
	s := NewSystem(Config{Protocol: SnoopRing}, newScript(streams))
	m := s.Run()
	if m.DataRefs != 1 || m.SharedRefs != 1 || m.SharedMisses != 1 {
		t.Fatalf("counts: data=%d shared=%d misses=%d, want 1/1/1",
			m.DataRefs, m.SharedRefs, m.SharedMisses)
	}
	if m.Hits != 0 {
		t.Fatalf("Hits = %d, want 0", m.Hits)
	}
	if m.MissLatency.N() != 1 || m.MissLatency.Value() <= 0 {
		t.Fatalf("miss latency samples = %d mean = %v", m.MissLatency.N(), m.MissLatency.Value())
	}
	if u := m.ProcUtil(); u <= 0 || u >= 1 {
		t.Fatalf("ProcUtil = %v, want in (0,1)", u)
	}
}

func TestHitsDoNotStall(t *testing.T) {
	streams := [][]trace.Ref{{ld(0x2000_0000_0000), ld(0x2000_0000_0000), ld(0x2000_0000_0000)}}
	s := NewSystem(Config{Protocol: SnoopRing}, newScript(streams))
	m := s.Run()
	if m.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", m.Hits)
	}
	if m.MissLatency.N() != 1 {
		t.Fatalf("miss samples = %d, want 1", m.MissLatency.N())
	}
}

func TestUpgradeCountedSeparately(t *testing.T) {
	streams := [][]trace.Ref{{ld(0x2000_0000_0000), st(0x2000_0000_0000)}}
	s := NewSystem(Config{Protocol: SnoopRing}, newScript(streams))
	m := s.Run()
	if m.Upgrades != 1 {
		t.Fatalf("Upgrades = %d, want 1", m.Upgrades)
	}
	if m.TxnCount[coherence.Invalidation] != 1 {
		t.Fatal("invalidation txn not counted")
	}
	if m.InvLatency.N() != 1 {
		t.Fatal("invalidation latency not sampled")
	}
	// The shared miss rate excludes the upgrade.
	if m.SharedMisses != 1 {
		t.Fatalf("SharedMisses = %d, want 1 (upgrade excluded)", m.SharedMisses)
	}
}

// TestAllProtocolsRunRealWorkload drives every engine through the
// core — the directory on the classic and on the segmented ring — at
// the paper's cache and at a 4 KB one, where dirty evictions are
// certain and every engine must count its write-backs.
func TestAllProtocolsRunRealWorkload(t *testing.T) {
	prof := workload.MustProfile("MP3D", 8)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"snoop-ring", Config{Protocol: SnoopRing}},
		{"directory-ring", Config{Protocol: DirectoryRing}},
		{"directory-ring/4 segments", Config{Protocol: DirectoryRing, Ring: ring.Config{Segments: 4}}},
		{"sci-ring", Config{Protocol: SCIRing}},
		{"snoop-bus", Config{Protocol: SnoopBus}},
		{"hier-ring", Config{Protocol: HierRing, Clusters: 2}},
	} {
		for _, size := range []int{0, 4 << 10} {
			cfg := c.cfg
			cfg.Seed = 5
			cfg.Cache.SizeBytes = size
			gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 800, Seed: 42})
			m := NewSystem(cfg, gen).Run()
			p := fmt.Sprintf("%s, %d-byte cache", c.name, size)
			if m.ExecTime <= 0 {
				t.Fatalf("%s: no execution time", p)
			}
			if m.DataRefs != 800*8 {
				t.Fatalf("%s: data refs = %d, want 6400", p, m.DataRefs)
			}
			if u := m.ProcUtil(); u <= 0 || u > 1 {
				t.Fatalf("%s: ProcUtil = %v out of (0,1]", p, u)
			}
			if m.NetworkUtil < 0 || m.NetworkUtil > 1 {
				t.Fatalf("%s: NetworkUtil = %v out of [0,1]", p, m.NetworkUtil)
			}
			if m.SharedMisses == 0 {
				t.Fatalf("%s: workload produced no shared misses", p)
			}
			if size != 0 && m.WriteBacks == 0 {
				t.Fatalf("%s: no write-backs", p)
			}
		}
	}
}

func TestDirectoryClassBreakdownPopulated(t *testing.T) {
	prof := workload.MustProfile("MP3D", 16)
	gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 1500, Seed: 11})
	m := NewSystem(Config{Protocol: DirectoryRing, Seed: 3}, gen).Run()
	total := m.ClassCount[coherence.OneCycleClean] +
		m.ClassCount[coherence.OneCycleDirty] + m.ClassCount[coherence.TwoCycle]
	if total == 0 {
		t.Fatal("no classified remote misses")
	}
	if m.ClassCount[coherence.OneCycleClean] == 0 {
		t.Fatal("no 1-cycle clean misses — home placement broken?")
	}
	// MP3D has substantial read-write sharing: some misses must need
	// the dirty-forward or multicast path.
	if m.ClassCount[coherence.OneCycleDirty]+m.ClassCount[coherence.TwoCycle] == 0 {
		t.Fatal("no dirty/2-cycle misses despite migratory sharing")
	}
}

func TestTraversalDistributionsPopulated(t *testing.T) {
	prof := workload.MustProfile("MP3D", 16)
	for _, p := range []Protocol{DirectoryRing, SCIRing} {
		gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 1200, Seed: 13})
		m := NewSystem(Config{Protocol: p, Seed: 4}, gen).Run()
		if m.MissTraversals.N() == 0 {
			t.Fatalf("%v: no miss traversal samples", p)
		}
		if m.InvTraversals.N() == 0 {
			t.Fatalf("%v: no invalidation traversal samples", p)
		}
		if m.MissTraversals.Percent(1) <= 0 {
			t.Fatalf("%v: no 1-traversal misses", p)
		}
	}
}

func TestSnoopAlwaysSingleTraversal(t *testing.T) {
	prof := workload.MustProfile("MP3D", 8)
	gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 1000, Seed: 17})
	m := NewSystem(Config{Protocol: SnoopRing, Seed: 2}, gen).Run()
	if m.MissTraversals.PercentAtLeast(2) != 0 {
		t.Fatal("snooping produced multi-traversal transactions")
	}
	if m.InvTraversals.PercentAtLeast(2) != 0 {
		t.Fatal("snooping invalidations took more than one traversal")
	}
}

func TestMeasuredSharedMissRateNearTargetAfterCalibration(t *testing.T) {
	prof := workload.MustProfile("MP3D", 16)
	wcfg := workload.Config{Profile: prof, DataRefsPerCPU: 2500, Seed: 21}
	sysCfg := Config{Protocol: DirectoryRing, Seed: 9}
	fitted, relErr := CalibrateWorkload(sysCfg, wcfg, 3)
	if relErr > 0.20 {
		t.Fatalf("calibration rel err = %v, want <= 0.20", relErr)
	}
	// Confirm with a fresh run.
	gen := workload.NewGenerator(fitted)
	m := NewSystem(sysCfg, gen).Run()
	if e := stats.RelErr(m.SharedMissRate(), prof.SharedMissRate); e > 0.30 {
		t.Fatalf("post-calibration shared miss rate %v vs target %v (rel err %v)",
			m.SharedMissRate(), prof.SharedMissRate, e)
	}
}

func TestDeterministicRuns(t *testing.T) {
	prof := workload.MustProfile("CHOLESKY", 8)
	run := func() *Metrics {
		gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 600, Seed: 30})
		return NewSystem(Config{Protocol: SnoopRing, Seed: 8}, gen).Run()
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.SharedMisses != b.SharedMisses ||
		a.MissLatency.Value() != b.MissLatency.Value() {
		t.Fatal("identical configurations produced different results")
	}
}

func TestFasterProcessorsRaiseNetworkLoad(t *testing.T) {
	prof := workload.MustProfile("MP3D", 8)
	util := func(cyc sim.Time) float64 {
		gen := workload.NewGenerator(workload.Config{Profile: prof, DataRefsPerCPU: 1200, Seed: 33})
		m := NewSystem(Config{Protocol: SnoopRing, ProcCycle: cyc, Seed: 6}, gen).Run()
		return m.NetworkUtil
	}
	slow := util(20 * sim.Nanosecond)
	fast := util(2 * sim.Nanosecond)
	if fast <= slow {
		t.Fatalf("ring utilization should grow with processor speed: slow=%v fast=%v", slow, fast)
	}
}

// TestResultsDoNotRetainMachines holds many results and bounds the heap
// each keeps: a returned Metrics must not keep its simulated machine
// alive, from System.Run or from Run's partitioned branch.
func TestResultsDoNotRetainMachines(t *testing.T) {
	const held = 20
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, par := range []int{1, 2} {
		before := heap()
		kept := make([]*Metrics, held)
		for i := range kept {
			gen := workload.NewGenerator(workload.Config{
				Profile: workload.MustProfile("MP3D", 8), DataRefsPerCPU: 300, Seed: uint64(i)})
			cfg := Config{Protocol: DirectoryRing, Seed: 1, Parallel: par}
			cfg.Ring.Segments = 2
			kept[i] = Run(cfg, gen)
			if kept[i].Parallel.Partitions != par {
				t.Fatalf("ran %d partitions, want %d", kept[i].Parallel.Partitions, par)
			}
		}
		per := (heap() - before) / held
		runtime.KeepAlive(kept)
		if per > 64<<10 {
			t.Errorf("parallel %d: each held result keeps %d KB of heap, want under 64 KB", par, per>>10)
		}
	}
}
