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
			expand = RuntimeMap
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
