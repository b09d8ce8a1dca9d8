package cluster

import (
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/stats"
)

// familyRow is the header half of one descriptor row.
type familyRow struct{ name, typ, help string }

func headerRows[V any](table []stats.Family[V]) []familyRow {
	var out []familyRow
	for _, f := range table {
		out = append(out, familyRow{f.Name, f.Type, f.Help})
	}
	return out
}

// TestMetricFamilyTables checks every descriptor row a node can serve
// — the server's page (build, serve, engine, sim, obs, reqtrace,
// tenant) and the coordinator's cluster and fleet tables — for the
// naming contract ringsim_<subsystem>_<name>_<unit>.
func TestMetricFamilyTables(t *testing.T) {
	var rows []familyRow
	rows = append(rows, headerRows(serve.MetricFamilies)...)
	rows = append(rows, headerRows(clusterFamilies)...)
	rows = append(rows, headerRows(fleetFamilies)...)
	subsystems := map[string]bool{
		"build": true, "serve": true, "engine": true, "sim": true, "obs": true,
		"reqtrace": true, "tenant": true, "cluster": true, "fleet": true,
	}
	names := map[string]bool{}
	for _, r := range rows {
		if names[r.name] {
			t.Errorf("%s declared twice", r.name)
		}
		names[r.name] = true
		sub, _, ok := strings.Cut(strings.TrimPrefix(r.name, "ringsim_"), "_")
		if !strings.HasPrefix(r.name, "ringsim_") || !ok || !subsystems[sub] {
			t.Errorf("%s: not ringsim_<subsystem>_ with a known subsystem", r.name)
		}
		switch r.typ {
		case stats.TypeCounter:
			if !strings.HasSuffix(r.name, "_total") {
				t.Errorf("counter %s does not end in _total", r.name)
			}
		case stats.TypeGauge, stats.TypeHistogram:
		default:
			t.Errorf("%s: type %q", r.name, r.typ)
		}
		if strings.TrimSpace(r.help) == "" {
			t.Errorf("%s: empty HELP", r.name)
		}
	}
}
