package sweep

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProtocolFromString maps a protocol name to the core enum.
func ProtocolFromString(name string) (core.Protocol, error) {
	switch name {
	case "snoop-ring":
		return core.SnoopRing, nil
	case "directory-ring":
		return core.DirectoryRing, nil
	case "sci-ring":
		return core.SCIRing, nil
	case "snoop-bus":
		return core.SnoopBus, nil
	case "hier-ring":
		return core.HierRing, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// SystemConfig translates the job into the core system configuration
// it describes. The translation is exact and invertible over the
// fields Job models; callers embedding richer configurations must
// bypass the engine.
func (j Job) SystemConfig() (core.Config, error) {
	j = j.Normalize()
	proto, err := ProtocolFromString(j.Protocol)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Protocol:  proto,
		ProcCycle: sim.Time(j.ProcCyclePS),
		Ring: ring.Config{
			ClockPS:                sim.Time(j.RingClockPS),
			WidthBits:              j.RingWidthBits,
			BlockBytes:             j.RingBlockBytes,
			ProbePairsPerBlockSlot: j.RingProbePairs,
			DisableStarvationRule:  j.RingNoStarvationRule,
			Segments:               j.RingSegments,
		},
		Bus:               bus.Config{ClockPS: sim.Time(j.BusClockPS)},
		Cache:             cache.Config{SizeBytes: j.CacheBytes, BlockBytes: j.CacheBlockBytes},
		PageBytes:         j.PageBytes,
		Seed:              j.Seed,
		WarmupDataRefs:    j.WarmupDataRefs,
		Clusters:          j.Clusters,
		NonBlockingStores: j.NonBlockingStores,
		WriteBufferDepth:  j.WriteBufferDepth,
	}
	// Reject the shapes core panics on here, politely: a Job arrives
	// over the wire and must come back as a job error instead of taking
	// the serving process down.
	if err := cfg.Validate(j.CPUs); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// standaloneWarmup is the cold-start window the default executor
// excludes from measurement, matching the repro facade.
const standaloneWarmup = 600

// standaloneExecutor builds the default executor with engine-wide
// tracing and parallelism configs. Both are execution details, never
// part of a job's identity: the simulated results are bit-identical
// with them on or off, so all variants of the same job share one cache
// entry.
func standaloneExecutor(trace obs.Config, parallel int) Executor {
	return func(j Job) (*core.Metrics, error) { return runStandalone(j, trace, parallel) }
}

// runStandalone is the default executor: one complete machine over the
// benchmark's Table 2 synthetic workload, the same machine repro.Run
// builds. The workload and home-placement RNG seed is derived from the
// job's content hash, so every job owns an independent, reproducible
// random stream no matter which worker runs it.
func runStandalone(j Job, trace obs.Config, parallel int) (*core.Metrics, error) {
	j = j.Normalize()
	prof, ok := workload.ProfileFor(j.Benchmark, j.CPUs)
	if !ok {
		return nil, fmt.Errorf("no workload profile %s/%d", j.Benchmark, j.CPUs)
	}
	cfg, err := j.SystemConfig()
	if err != nil {
		return nil, err
	}
	seed := j.RNGSeed()
	cfg.Seed = seed
	cfg.Trace = trace
	cfg.Parallel = parallel
	if j.RingSegments != 0 {
		// Tracing samples on a global span counter and is unsupported
		// over the segmented ring. It is an execution detail, never part
		// of job identity, so segmented jobs simply run untraced rather
		// than failing on an engine-wide tracing default.
		cfg.Trace = obs.Config{}
	}
	if cfg.WarmupDataRefs == 0 {
		cfg.WarmupDataRefs = standaloneWarmup
	}
	gen := workload.NewGenerator(workload.Config{
		Profile:        prof,
		DataRefsPerCPU: j.DataRefsPerCPU + cfg.WarmupDataRefs,
		Seed:           seed,
	})
	return core.Run(cfg, gen), nil
}
