package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Layer attribution from the process's own CPU and allocation
// profiles. A sample belongs to the innermost frame that lies in one of
// the repository's packages, so runtime work a layer causes (malloc,
// GC assists, map growth) counts as that layer's self time, and samples
// with no such frame (GC workers, the scheduler, this harness) stay
// unattributed.

// cpuProfileHz is the sampling rate of the traced run's CPU profiles:
// at the default 100 Hz a layer holding a few percent of a one-second
// phase would rest on a handful of samples.
const cpuProfileHz = 1000

// layerOf names the layer a function belongs to, or "" for code outside
// the repository's packages.
func layerOf(fn, file string) string {
	if !strings.HasPrefix(fn, "repro/") && !strings.HasPrefix(fn, "repro.") ||
		strings.HasPrefix(fn, "repro/perfbench.") { // this harness, as built by go test
		return ""
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	base := file[strings.LastIndexByte(file, '/')+1:]
	switch pkg {
	case "repro/internal/directory":
		if base == "segmented.go" {
			return "segdir"
		}
		return "directory"
	case "repro/internal/ring":
		if base == "segmented.go" {
			return "segring"
		}
		return "ring"
	case "repro/internal/sim":
		if base == "parallel.go" || base == "spsc.go" {
			return "par"
		}
		return "sim"
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// layerCost is what a profile attributes to each layer.
type layerCost struct {
	// NS is CPU time by layer; TotalNS all sampled CPU time.
	NS      map[string]float64
	TotalNS float64
	// Objs and Bytes are heap allocations by layer.
	Objs, Bytes map[string]float64
}

func newLayerCost() *layerCost {
	return &layerCost{NS: map[string]float64{}, Objs: map[string]float64{}, Bytes: map[string]float64{}}
}

func (c *layerCost) add(d *layerCost) {
	for k, v := range d.NS {
		c.NS[k] += v
	}
	c.TotalNS += d.TotalNS
	for k, v := range d.Objs {
		c.Objs[k] += v
	}
	for k, v := range d.Bytes {
		c.Bytes[k] += v
	}
}

// scale multiplies every cost by f.
func (c *layerCost) scale(f float64) {
	for _, m := range []map[string]float64{c.NS, c.Objs, c.Bytes} {
		for k := range m {
			m[k] *= f
		}
	}
	c.TotalNS *= f
}

// attributedNS is the CPU time some layer's self time covers.
func (c *layerCost) attributedNS() float64 {
	var s float64
	for _, v := range c.NS {
		s += v
	}
	return s
}

// profiled runs fn under a CPU profile and between two allocation
// profile snapshots, and returns what they attribute to each layer.
func profiled(fn func()) (*layerCost, error) {
	before := allocsByLayer()
	var buf bytes.Buffer
	// StartCPUProfile fixes 100 Hz and, finding the rate already set,
	// prints a warning on stderr and keeps cpuProfileHz.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	c, err := cpuByLayer(buf.Bytes())
	if err != nil {
		return nil, err
	}
	after := allocsByLayer()
	for k, v := range after.Objs {
		c.Objs[k] = v - before.Objs[k]
	}
	for k, v := range after.Bytes {
		c.Bytes[k] = v - before.Bytes[k]
	}
	return c, nil
}

// allocsByLayer reads the cumulative allocation profile, scaled the way
// pprof scales sampled heap profiles.
func allocsByLayer() *layerCost {
	// The profile lags by up to two GC cycles.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	c := newLayerCost()
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs {
		objs, bytes := float64(r.AllocObjects), float64(r.AllocBytes)
		if objs == 0 || bytes == 0 {
			continue
		}
		if rate > 1 {
			scale := 1 / (1 - math.Exp(-bytes/objs/rate))
			objs, bytes = objs*scale, bytes*scale
		}
		layer := ""
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if layer = layerOf(f.Function, f.File); layer != "" || !more {
				break
			}
		}
		c.Objs[layer] += objs
		c.Bytes[layer] += bytes
	}
	return c
}

// cpuByLayer decodes a gzipped profile.proto CPU profile and sums its
// sample counts by layer.
func cpuByLayer(gz []byte) (*layerCost, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64][2]int64{} // id → name, file string indexes
		locs    = map[uint64][]uint64{} // id → function ids, innermost first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s struct {
				locs  []uint64
				count int64
			}
			first := true
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbVarints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbVarints(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcs[id] = [2]int64{name, file}
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	layers := map[uint64]string{}
	layerOfFunc := func(id uint64) string {
		l, ok := layers[id]
		if !ok {
			f := funcs[id]
			l = layerOf(str(f[0]), str(f[1]))
			layers[id] = l
		}
		return l
	}
	c := newLayerCost()
	const nsPerSample = 1e9 / cpuProfileHz
	for _, s := range samples {
		ns := float64(s.count) * nsPerSample
		c.TotalNS += ns
	frames:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if layer := layerOfFunc(fn); layer != "" {
					c.NS[layer] += ns
					break frames
				}
			}
		}
	}
	return c, nil
}

// pbFields calls fn for each field of a protobuf message: v is the
// value of a varint field, b the payload of a length-delimited one.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints yields a repeated varint field's values, packed (payload b)
// or not (value v).
func pbVarints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
