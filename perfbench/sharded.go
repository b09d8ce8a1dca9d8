package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sharded-mp3d32 workload: the directory protocol on a ring of 8
// segments running MP3D/32, partitioned over 2 event-kernel shards.
// Its artifact is the canonical MetricsSnapshot, which must be the same
// bytes at 2 shards as on the sequential kernel.

const (
	shardSegments = 8
	shardParallel = 2
	shardWarmup   = 600
)

// shardedConfig is the machine repro.Run builds for directory-ring
// MP3D/32 with 8 ring segments, at the given shard count.
func shardedConfig(o opts, parallel int) (core.Config, workload.Config) {
	cfg := core.Config{
		Protocol:       core.DirectoryRing,
		Ring:           ring.Config{ClockPS: 2 * sim.Nanosecond, WidthBits: 32, Segments: shardSegments},
		Seed:           o.Seed,
		WarmupDataRefs: shardWarmup,
		Parallel:       parallel,
	}
	wcfg := workload.Config{
		Profile:        workload.MustProfile("MP3D", 32),
		DataRefsPerCPU: o.ShardRefs + shardWarmup,
		Seed:           o.Seed,
	}
	return cfg, wcfg
}

// runShardedOnce simulates the workload at the given shard count and
// returns its metrics and canonical artifact.
func runShardedOnce(o opts, parallel int) (*core.Metrics, []byte, error) {
	cfg, wcfg := shardedConfig(o, parallel)
	m := core.Run(cfg, workload.NewGenerator(wcfg))
	if m.Parallel.Partitions != parallel {
		return nil, nil, fmt.Errorf("asked for %d shards, ran %d (%s)", parallel, m.Parallel.Partitions, m.Parallel.Fallback)
	}
	art, err := json.Marshal(m.Snapshot())
	return m, art, err
}

func shardedSetup(o opts) error {
	cfg, wcfg := shardedConfig(o, 1)
	_ = core.NewSystem(cfg, workload.NewGenerator(wcfg))
	return nil
}

func runSharded(o opts) (*outcome, error) {
	oc := &outcome{Metrics: map[string]float64{}}
	setup, err := medianSetup(o, func() error { return shardedSetup(o) })
	if err != nil {
		return nil, err
	}
	var arts [][]byte
	var m *core.Metrics
	walls, err := timed(o, func(int) error {
		var art []byte
		var err error
		m, art, err = runShardedOnce(o, shardParallel)
		arts = append(arts, art)
		return err
	})
	if err != nil {
		return nil, err
	}
	_, seq, err := runShardedOnce(o, 1)
	if err != nil {
		return nil, err
	}
	oc.Attempted = len(arts) + 1
	chk := newArtifactChecker(o, wlSharded)
	chk.check(oc, "sequential run", seq)
	for i, a := range arts {
		if string(a) != string(seq) {
			oc.fail("%s seed %d: run %d at %d shards differs from the sequential run", wlSharded, o.Seed, i, shardParallel)
			continue
		}
		chk.check(oc, fmt.Sprintf("run %d", i), a)
	}
	return simMetrics(o, oc, setup, median(walls), walls, m.InstrRefs+m.DataRefs), nil
}
