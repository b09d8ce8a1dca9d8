package stats

import (
	"encoding/json"
	"testing"
)

// TestSnapshotRoundTrip pins the federation wire contract: an
// ExpHistogram survives Snapshot → JSON → FromSnapshot losslessly and
// the rebuilt histogram merges like the original.
func TestSnapshotRoundTrip(t *testing.T) {
	h := NewExpHistogram(1, 2, 6)
	for _, v := range []float64{0.2, 1, 3, 3, 17, 1e9} {
		h.Observe(v)
	}

	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap HistSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	got, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	if got.N() != h.N() || got.Sum() != h.Sum() {
		t.Fatalf("n/sum = %d/%g, want %d/%g", got.N(), got.Sum(), h.N(), h.Sum())
	}
	ws, gs := h.Snapshot(), got.Snapshot()
	wb, wc, gb, gc := ws.Bounds, ws.Counts, gs.Bounds, gs.Counts
	for i := range wb {
		if gb[i] != wb[i] {
			t.Fatalf("bound %d = %g, want %g", i, gb[i], wb[i])
		}
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("count %d = %d, want %d", i, gc[i], wc[i])
		}
	}

	// Merging a rebuilt snapshot into a same-shape histogram must
	// preserve totals — the fleet-aggregation path.
	agg := NewExpHistogram(1, 2, 6)
	agg.Observe(5)
	if err := agg.Merge(got); err != nil {
		t.Fatal(err)
	}
	if agg.N() != h.N()+1 {
		t.Fatalf("merged n = %d, want %d", agg.N(), h.N()+1)
	}

	// Snapshot must be a copy, not aliased storage.
	snap2 := h.Snapshot()
	snap2.Counts[0] = 999
	if h.Snapshot().Counts[0] == 999 {
		t.Fatal("Snapshot aliased histogram storage")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	ok := NewExpHistogram(1, 2, 3).Snapshot()
	cases := map[string]func(HistSnapshot) HistSnapshot{
		"short counts": func(s HistSnapshot) HistSnapshot {
			s.Counts = s.Counts[:len(s.Counts)-1]
			return s
		},
		"no bounds": func(s HistSnapshot) HistSnapshot {
			s.Bounds = nil
			return s
		},
		"count mismatch": func(s HistSnapshot) HistSnapshot {
			s.N = 41
			return s
		},
		"non-increasing bounds": func(s HistSnapshot) HistSnapshot {
			s.Bounds = append([]float64(nil), s.Bounds...)
			s.Bounds[1] = s.Bounds[0]
			return s
		},
		"negative bound": func(s HistSnapshot) HistSnapshot {
			s.Bounds = append([]float64(nil), s.Bounds...)
			s.Bounds[0] = -1
			return s
		},
	}
	for name, mutate := range cases {
		if _, err := FromSnapshot(mutate(ok)); err == nil {
			t.Errorf("%s: FromSnapshot accepted malformed snapshot", name)
		}
	}
	if _, err := FromSnapshot(ok); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}
