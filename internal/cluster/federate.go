package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	olog "repro/internal/obs/slog"
	"repro/internal/stats"
)

// scrapeTimeout bounds one worker scrape so a wedged worker cannot
// stall the coordinator's federated metrics page.
const scrapeTimeout = 3 * time.Second

// scrapeLimit caps one worker's exposition body (a worker is trusted,
// but a page that federates N workers should not be unbounded in any
// single one).
const scrapeLimit = 8 << 20

// FederateMetrics backs the coordinator's GET /v1/cluster/metrics: one
// exposition page carrying (1) the coordinator's own series, (2) every
// live worker's /metrics page with a worker="<id>" label injected into
// each sample, HELP/TYPE headers deduplicated across the fleet, and
// (3) fleet-merged coherence-span latency histograms folded from each
// worker's /internal/v1/obsagg snapshots via ExpHistogram.Merge — the
// cross-worker percentile view no single node can render. It satisfies
// serve.Options.FederateMetrics; self renders the local node's page.
//
// Federation is best-effort by design: an unreachable worker
// contributes nothing (and a warning log) rather than failing the
// page, because the metrics endpoint is exactly what an operator
// reaches for when part of the fleet is down.
func (c *Coordinator) FederateMetrics(ctx context.Context, self func(io.Writer), w io.Writer) {
	// The local page goes first, so worker pages don't repeat its
	// HELP/TYPE lines for shared families.
	var buf bytes.Buffer
	self(&buf)
	seen := make(map[string]bool)
	stats.Federate(w, buf.Bytes(), "", "", seen)

	for _, m := range c.reg.status() {
		if !m.Live {
			continue
		}
		body, err := c.scrape(ctx, m.Addr+"/metrics")
		if err != nil {
			c.log.Warn("metrics scrape failed", olog.KeyWorker, m.ID, olog.KeyError, err.Error())
			continue
		}
		stats.Federate(w, body, "worker", m.ID, seen)
	}
	c.writeFleetHistograms(ctx, w)
}

// scrape GETs one URL under the scrape timeout and size cap.
func (c *Coordinator) scrape(ctx context.Context, url string) ([]byte, error) {
	sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, scrapeLimit))
}

// writeFleetHistograms scrapes each live worker's obsagg snapshots and
// emits the fleet-merged per-class span aggregates. A snapshot that
// fails validation or has a different bucket shape is skipped (and
// logged), never merged blindly.
func (c *Coordinator) writeFleetHistograms(ctx context.Context, w io.Writer) {
	merged := make(map[string]*fleetClass)
	for _, m := range c.reg.status() {
		if !m.Live {
			continue
		}
		body, err := c.scrape(ctx, m.Addr+pathObsAgg)
		if err != nil {
			c.log.Warn("obsagg scrape failed", olog.KeyWorker, m.ID, olog.KeyError, err.Error())
			continue
		}
		var aggs []ClassAggSnapshot
		if err := json.Unmarshal(body, &aggs); err != nil {
			c.log.Warn("obsagg decode failed", olog.KeyWorker, m.ID, olog.KeyError, err.Error())
			continue
		}
		for _, a := range aggs {
			h, err := stats.FromSnapshot(a.Latency)
			if err != nil {
				c.log.Warn("obsagg snapshot invalid", olog.KeyWorker, m.ID, "class", a.Class, olog.KeyError, err.Error())
				continue
			}
			fc := merged[a.Class]
			if fc == nil {
				merged[a.Class] = &fleetClass{class: a.Class, spans: a.Spans, hist: h}
				continue
			}
			if err := fc.hist.Merge(h); err != nil {
				c.log.Warn("obsagg merge failed", olog.KeyWorker, m.ID, "class", a.Class, olog.KeyError, err.Error())
				continue
			}
			fc.spans += a.Spans
		}
	}
	classes := make([]fleetClass, 0, len(merged))
	for _, fc := range merged {
		classes = append(classes, *fc)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].class < classes[j].class })
	stats.WriteFamilies(w, fleetFamilies, classes)
}
