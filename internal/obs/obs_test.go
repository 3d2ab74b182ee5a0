package obs

import "testing"

// TestMergeGaugesTakeMax holds Merge and MergeMap to one gauge set: for
// every catalog entry, merging two snapshots takes the max of a gauge
// and sums everything else, histogram series included.
func TestMergeGaugesTakeMax(t *testing.T) {
	for _, d := range Catalog() {
		a, b := NewCells(), NewCells()
		a[d.ID], b[d.ID] = 3, 5
		want := uint64(8)
		if d.Kind == Gauge {
			want = 5
		}
		if got := Merge([]Cells{a, b})[d.ID]; got != want {
			t.Errorf("Merge %s: %d, want %d", d.Name, got, want)
		}

		expand := DeterministicMap
		if d.Runtime {
			expand = func(c Cells) map[string]uint64 { return RuntimeMap(c, nil) }
		}
		dst, src := expand(a), expand(b)
		if len(src) == 0 {
			t.Fatalf("%s: the snapshot expands to no keys", d.Name)
		}
		MergeMap(dst, src)
		for k, v := range dst {
			if v != want {
				t.Errorf("MergeMap %s: %s = %d, want %d", d.Name, k, v, want)
			}
		}
	}
}

// TestDeterministicCellsFirst holds the cell layout Grown relies on:
// every deterministic series reads cells below numDeterministic and
// every runtime series cells at or above it, so a delta of the first
// numDeterministic cells carries the whole deterministic plane.
func TestDeterministicCellsFirst(t *testing.T) {
	for _, s := range detSeries {
		if s.hi > numDeterministic {
			t.Errorf("deterministic series %s reads cells [%d, %d), past %d", s.key, s.lo, s.hi, numDeterministic)
		}
	}
	for _, s := range runtimeSeries {
		if s.lo < numDeterministic {
			t.Errorf("runtime series %s reads cells [%d, %d), below %d", s.key, s.lo, s.hi, numDeterministic)
		}
	}
}
