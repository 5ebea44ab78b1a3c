package bench

import (
	"strconv"
	"testing"

	"github.com/wazi-index/wazi/internal/dataset"
)

// TestKernelAllocsShardedKNN holds the sharded kNN to its gate: at 8
// shards it scans at most twice the points of a single index over the same
// data, and both sharded kNN paths stay allocation-free.
func TestKernelAllocsShardedKNN(t *testing.T) {
	tables := KernelAllocs(Config{
		Scale: 20_000, Queries: 200, LeafSize: 256, Seed: 1,
		Regions: []dataset.Region{dataset.NewYork},
	})
	if len(tables) != 3 {
		t.Fatalf("kernel-allocs produced %d tables, want 3", len(tables))
	}
	cell := func(tb Table, path string) float64 {
		t.Helper()
		for _, row := range tb.Rows {
			if row[0] == path {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				return v
			}
		}
		t.Fatalf("table %q has no %s row", tb.Title, path)
		return 0
	}
	allocs, scan := tables[0], tables[2]
	for _, path := range []string{"sharded/knn", "sharded-disk/knn"} {
		if a := cell(allocs, path); a != 0 && !raceEnabled {
			t.Errorf("%s: %.3f allocs/op, want 0", path, a)
		}
	}
	single, sharded := cell(scan, "index/knn"), cell(scan, "sharded/knn")
	if single <= 0 || sharded > 2*single {
		t.Errorf("sharded/knn scans %.1f points/op against %.1f for index/knn, want at most 2x", sharded, single)
	}
	if d := cell(scan, "sharded-disk/knn"); d != sharded {
		t.Errorf("sharded-disk/knn scans %.1f points/op, RAM backend %.1f", d, sharded)
	}
}
