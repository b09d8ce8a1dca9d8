package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// The exporter writes the Chrome trace event format (the JSON flavor
// Perfetto's ui.perfetto.dev loads directly): one "process" groups the
// simulated processors (one slice track each), a second groups the
// interconnect occupancy counters (one counter track per ring slot
// class or bus tenure kind). Timestamps are microseconds per the
// format; displayTimeUnit asks the viewer to label in nanoseconds,
// the natural scale here.

// TraceEvent is one entry of a Chrome trace file's traceEvents array,
// the event type every trace export in the module writes.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
	OtherData       traceSummary `json:"otherData"`
}

// traceSummary carries the run-level aggregates alongside the raw
// events: the exact per-class latency means (over every span, not just
// the sampled ones) and per-track mean occupancies, so a trace file is
// self-describing and checkable against the run's Table-2 aggregates.
type traceSummary struct {
	SampleEvery   int            `json:"sample_every"`
	SpansObserved uint64         `json:"spans_observed"`
	SpansSampled  uint64         `json:"spans_sampled"`
	SpansDropped  uint64         `json:"spans_dropped"`
	Classes       []classSummary `json:"classes"`
	Tracks        []trackSummary `json:"tracks"`
}

// classSummary summarizes one transaction class.
type classSummary struct {
	Class   string             `json:"class"`
	Spans   uint64             `json:"spans"`
	MeanNS  float64            `json:"mean_ns"`
	P50NS   float64            `json:"p50_ns"`
	P95NS   float64            `json:"p95_ns"`
	PhaseNS map[string]float64 `json:"phase_mean_ns,omitempty"`
}

// trackSummary summarizes one occupancy track.
type trackSummary struct {
	Name          string  `json:"name"`
	Slots         int     `json:"slots"`
	Messages      uint64  `json:"messages"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	Dropped       uint64  `json:"dropped"`
}

const (
	pidProcs = 0
	pidNet   = 1
)

// us converts a simulation time to trace microseconds.
func us(t sim.Time) float64 { return t.Nanoseconds() / 1000 }

// WriteTrace writes the run's trace in Chrome trace event JSON.
// Calling it on a nil tracer is an error-free no-op that writes an
// empty, still-loadable trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ns"}
	if t != nil {
		f.TraceEvents = t.events()
		f.OtherData = t.summary()
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	b, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// summary builds the otherData aggregates.
func (t *Tracer) summary() traceSummary {
	s := traceSummary{
		SampleEvery:   t.cfg.SampleEvery,
		SpansObserved: t.SpansObserved(),
		SpansSampled:  t.sampled,
		SpansDropped:  t.dropped,
		Classes:       []classSummary{},
		Tracks:        []trackSummary{},
	}
	for c := 0; c < coherence.NumTxn; c++ {
		if t.classN[c] == 0 {
			continue
		}
		txn := coherence.Txn(c)
		h := t.latency[c]
		cs := classSummary{
			Class:  txn.String(),
			Spans:  t.classN[c],
			MeanNS: h.Mean(),
			P50NS:  h.Quantile(0.50),
			P95NS:  h.Quantile(0.95),
		}
		for p := 0; p < NumPhases; p++ {
			if ph := t.phase[c][p]; ph.N() > 0 {
				if cs.PhaseNS == nil {
					cs.PhaseNS = map[string]float64{}
				}
				cs.PhaseNS[Phase(p).String()] = ph.Mean()
			}
		}
		s.Classes = append(s.Classes, cs)
	}
	window := t.finish - t.netStart
	for _, tr := range t.tracks {
		ts := trackSummary{Name: tr.name, Slots: tr.slots, Messages: tr.messages, Dropped: tr.dropped}
		if window > 0 {
			var integral sim.Time
			for i := 0; i+1 < len(tr.edges); i += 2 {
				integral += tr.edges[i+1].at - tr.edges[i].at
			}
			ts.MeanOccupancy = float64(integral) / float64(window*sim.Time(tr.slots))
		}
		s.Tracks = append(s.Tracks, ts)
	}
	return s
}

// events builds the traceEvents array: metadata naming the tracks,
// one slice (plus phase sub-slices) per sampled span, and counter
// series for the occupancy tracks.
func (t *Tracer) events() []TraceEvent {
	var evs []TraceEvent
	meta := func(pid, tid int, key, val string) {
		evs = append(evs, TraceEvent{
			Name: key, Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": val},
		})
	}
	meta(pidProcs, 0, "process_name", "processors")
	for p := range t.procs {
		meta(pidProcs, p, "thread_name", "cpu "+strconv.Itoa(p))
	}
	meta(pidNet, 0, "process_name", "interconnect")

	t.Records(func(r Record) {
		// Waypoints in time order: issue, each reached phase, fill.
		// Phases are normally monotonic, but a snooping write miss can
		// see its data before the invalidating probe returns, so sort.
		type waypoint struct {
			at    sim.Time
			label string
		}
		wps := []waypoint{{r.Start, "issue"}}
		for p := 0; p < NumPhases; p++ {
			if ts := r.Phase[p]; ts != 0 {
				wps = append(wps, waypoint{ts, Phase(p).String()})
			}
		}
		sort.SliceStable(wps, func(i, j int) bool { return wps[i].at < wps[j].at })
		wps = append(wps, waypoint{r.End, "fill"})

		evs = append(evs, TraceEvent{
			Name: r.Txn.String(), Cat: "txn", Ph: "X",
			TS: us(r.Start), Dur: us(r.End - r.Start),
			PID: pidProcs, TID: int(r.Proc),
		})
		for i := 0; i+1 < len(wps); i++ {
			from, to := wps[i], wps[i+1]
			if to.at <= from.at {
				continue
			}
			evs = append(evs, TraceEvent{
				Name: to.label, Cat: "phase", Ph: "X",
				TS: us(from.at), Dur: us(to.at - from.at),
				PID: pidProcs, TID: int(r.Proc),
			})
		}
	})

	for _, tr := range t.tracks {
		edges := append([]occEdge(nil), tr.edges...)
		sort.SliceStable(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].d < edges[j].d // removals before grabs at ties
		})
		busy := int32(0)
		for i := 0; i < len(edges); {
			at := edges[i].at
			for i < len(edges) && edges[i].at == at {
				busy += edges[i].d
				i++
			}
			evs = append(evs, TraceEvent{
				Name: tr.name, Ph: "C", TS: us(at),
				PID: pidNet, TID: 0,
				Args: map[string]any{"busy": busy},
			})
		}
	}
	return evs
}
