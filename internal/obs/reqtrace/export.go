package reqtrace

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/obs"
)

// Chrome-trace-event export of a request's span tree, in the same
// JSON flavor internal/obs writes for simulator transactions, so
// ui.perfetto.dev opens both. Each service in the tree becomes one
// "process" row; spans are complete ("X") slices. Timestamps are
// microseconds relative to the earliest span so the viewer does not
// render 50 years of empty timeline before the request.

type chromeFile struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []obs.TraceEvent `json:"traceEvents"`
	OtherData       map[string]any   `json:"otherData"`
}

// WriteChrome writes the trace as Chrome trace event JSON.
func (d TraceDoc) WriteChrome(w io.Writer) error {
	f := chromeFile{
		DisplayTimeUnit: "ns",
		TraceEvents:     []obs.TraceEvent{},
		OtherData: map[string]any{
			"request_id": d.RequestID,
			"spans":      len(d.Spans),
		},
	}

	// Services in first-appearance order get stable pid rows.
	pids := map[string]int{}
	var services []string
	for _, s := range d.Spans {
		if _, ok := pids[s.Service]; !ok {
			pids[s.Service] = len(services)
			services = append(services, s.Service)
		}
	}
	sort.Strings(services)
	for i, svc := range services {
		pids[svc] = i
		f.TraceEvents = append(f.TraceEvents, obs.TraceEvent{
			Name: "process_name", Ph: "M", PID: i,
			Args: map[string]any{"name": svc},
		})
	}

	var t0 int64
	for i, s := range d.Spans {
		if i == 0 || s.StartUS < t0 {
			t0 = s.StartUS
		}
	}
	for _, s := range d.Spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		f.TraceEvents = append(f.TraceEvents, obs.TraceEvent{
			Name: s.Name, Cat: "request", Ph: "X",
			TS: float64(s.StartUS - t0), Dur: float64(s.DurUS),
			PID: pids[s.Service], TID: 0,
			Args: args,
		})
	}

	b, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
