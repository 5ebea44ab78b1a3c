package wazi

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/indextest"
	"github.com/wazi-index/wazi/internal/storage"
)

// shardedAsIndex adapts Sharded to the conformance suite's index.Index
// surface (Stats by value becomes a snapshot pointer).
type shardedAsIndex struct {
	s *Sharded
	// reopen recovers a fresh instance from the build-time snapshot plus
	// the WAL tail (indextest.Recoverable); nil for builds without a WAL.
	reopen func(t *testing.T) index.Index
}

func (a shardedAsIndex) RangeQuery(r geom.Rect) []geom.Point  { return a.s.RangeQuery(r) }
func (a shardedAsIndex) RangeCount(r geom.Rect) int           { return a.s.RangeCount(r) }
func (a shardedAsIndex) PointQuery(p geom.Point) bool         { return a.s.PointQuery(p) }
func (a shardedAsIndex) Len() int                             { return a.s.Len() }
func (a shardedAsIndex) Bytes() int64                         { return a.s.Bytes() }
func (a shardedAsIndex) KNN(q geom.Point, k int) []geom.Point { return a.s.KNN(q, k) }
func (a shardedAsIndex) Insert(p geom.Point)                  { a.s.Insert(p) }
func (a shardedAsIndex) Delete(p geom.Point) bool             { return a.s.Delete(p) }
func (a shardedAsIndex) Stats() *storage.Stats {
	st := a.s.Stats()
	return &st
}

// Repartition opts the adapter into the differential suite's mid-stream
// plan-migration battery (indextest.Repartitioner).
func (a shardedAsIndex) Repartition() bool { return a.s.Repartition() }

// DropCaches opts the adapter into the cold-cache battery
// (indextest.CacheDropper): every disk-backed shard's block cache is
// emptied mid-stream, forcing zero-copy refaults.
func (a shardedAsIndex) DropCaches() { a.s.DropCaches() }

// Reopen opts the adapter into the recover-vs-never-crashed battery
// (indextest.Recoverable): it simulates a crash-restart by recovering from
// the build-time snapshot plus the live WAL tail without closing the
// original instance.
func (a shardedAsIndex) Reopen(t *testing.T) index.Index { return a.reopen(t) }

// TestShardedDifferentialConformance runs the full differential conformance
// suite over Sharded on both storage backends: every subtest builds a RAM
// twin and a disk-backed twin (fresh page-file directory each), which must
// answer identically to each other and to brute force, with page-access
// stats parity, including under insert/delete churn.
func TestShardedDifferentialConformance(t *testing.T) {
	dir := t.TempDir()
	n := 0
	var built []*Sharded
	t.Cleanup(func() {
		for _, s := range built {
			s.Close()
		}
	})
	// mkOpts builds one instance's option set. Every build gets its own WAL
	// (sync "none": page-cache durability is all a same-process reopen
	// needs, and it keeps the churn batteries off the fsync path); disk
	// builds get their own page-file directory.
	mkOpts := func(walDir, storageDir string) []ShardedOption {
		opts := []ShardedOption{
			WithShards(4), WithoutAutoRebuild(), WithCompactThreshold(400),
			WithIndexOptions(WithLeafSize(64), WithSeed(7), WithExactCounts()),
			WithWAL(walDir), WithWALSync("none"),
		}
		if storageDir != "" {
			opts = append(opts, WithShardedStorage(storageDir, 32))
		}
		return opts
	}
	build := func(disk bool) indextest.Builder {
		return func(pts []geom.Point, qs []geom.Rect) index.Index {
			n++
			walDir := filepath.Join(dir, fmt.Sprintf("wal%03d", n))
			storageDir := ""
			if disk {
				storageDir = filepath.Join(dir, fmt.Sprintf("d%03d", n))
			}
			s, err := NewSharded(pts, qs, mkOpts(walDir, storageDir)...)
			if err != nil {
				panic(err)
			}
			built = append(built, s)
			// The baseline snapshot taken at build time is what a reopen
			// recovers from; everything after it lives only in the WAL.
			var baseline bytes.Buffer
			if err := s.Save(&baseline); err != nil {
				panic(err)
			}
			reopen := func(t *testing.T) index.Index {
				t.Helper()
				// Crash-restart: the live instance is NOT closed; recovery
				// reopens the same WAL and storage directories, exactly as
				// a restarted process would. The load-time stale-page sweep
				// unlinks the live twin's newer-generation files, but its
				// open descriptors keep them readable, so the never-crashed
				// instance stays comparable.
				r, err := LoadSharded(bytes.NewReader(baseline.Bytes()), mkOpts(walDir, storageDir)...)
				if err != nil {
					t.Fatalf("Reopen: recovery from snapshot+wal failed: %v", err)
				}
				built = append(built, r)
				return shardedAsIndex{s: r}
			}
			return shardedAsIndex{s: s, reopen: reopen}
		}
	}
	indextest.Differential(t, build(false), build(true))
}
