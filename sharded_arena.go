package wazi

import (
	"sync"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/obs"
)

// maxArenaPoints bounds the per-slot capacity an arena carries back into the
// pool. One pathological query (a full-domain range over a huge dataset) must
// not pin its high-water buffers forever, so slots that grew past this are
// dropped at release and rebuilt lazily; everything below it is retained,
// which is what makes steady-state reads allocation-free.
const maxArenaPoints = 1 << 16

// queryArena is the reusable state of one fan-out read: the target list, one
// scratch buffer per target for parallel workers to append into, the count
// slots, and the kNN merge heap. Arenas are pooled, and the per-query worker
// closures (rangeFn, countFn, knnFn) are bound once when the arena is
// created — a pooled arena re-pointed at a new query therefore allocates
// nothing, which is the property the kernel-allocs experiment ratchets.
//
// An arena is owned by exactly one query from get to release. During a
// pool.Run fan-out its slices are shared across workers, but each worker
// touches only its own index, so the only synchronization needed is Run's
// own completion barrier.
type queryArena struct {
	s    *Sharded
	snap *shardedSnapshot
	r    Rect
	q    Point
	k    int
	tr   *obs.QueryTrace

	targets []int
	bufs    [][]Point
	counts  []int
	dists   []float64 // kNN: MINDIST² from q per target (see knnTargets)
	heap    []Point

	rangeFn func(int)
	countFn func(int)
	knnFn   func(int)
}

var arenaPool = sync.Pool{New: func() any {
	a := &queryArena{}
	a.rangeFn = func(ti int) {
		si := a.targets[ti]
		t0, live := a.s.scanStart(a.tr)
		dst := shardRange(a.snap.shards[si], a.r, a.bufs[ti][:0])
		if live {
			a.s.endScan(a.tr, si, t0, len(dst))
		}
		a.bufs[ti] = dst
	}
	a.countFn = func(ti int) {
		si := a.targets[ti]
		t0, live := a.s.scanStart(a.tr)
		n := shardCount(a.snap.shards[si], a.r)
		if live {
			a.s.endScan(a.tr, si, t0, n)
		}
		a.counts[ti] = n
	}
	a.knnFn = func(ti int) {
		si := a.targets[ti]
		t0, live := a.s.scanStart(a.tr)
		dst := shardKNNAppend(a.bufs[ti][:0], a.snap.shards[si], a.q, a.k)
		if live {
			a.s.endScan(a.tr, si, t0, len(dst))
		}
		a.bufs[ti] = dst
	}
	return a
}}

// getArena borrows an arena and points it at one query's snapshot and trace.
func (s *Sharded) getArena(snap *shardedSnapshot, tr *obs.QueryTrace) *queryArena {
	a := arenaPool.Get().(*queryArena)
	a.s, a.snap, a.tr = s, snap, tr
	return a
}

// release truncates the arena's buffers (dropping oversized ones, see
// maxArenaPoints) and returns it to the pool. The snapshot reference is
// cleared so a pooled arena never pins retired shard memory.
func (a *queryArena) release() {
	a.s, a.snap, a.tr = nil, nil, nil
	a.targets = a.targets[:0]
	bufs := a.bufs[:cap(a.bufs)]
	for i := range bufs {
		if cap(bufs[i]) > maxArenaPoints {
			bufs[i] = nil
		} else {
			bufs[i] = bufs[i][:0]
		}
	}
	if cap(a.heap) > maxArenaPoints {
		a.heap = nil
	} else {
		a.heap = a.heap[:0]
	}
	arenaPool.Put(a)
}

// ensure sizes the per-target slots for n targets, preserving buffers grown
// by earlier queries.
func (a *queryArena) ensure(n int) {
	if cap(a.bufs) < n {
		nb := make([][]Point, n)
		copy(nb, a.bufs[:cap(a.bufs)])
		a.bufs = nb
	}
	a.bufs = a.bufs[:n]
	if cap(a.counts) < n {
		a.counts = make([]int, n)
	}
	a.counts = a.counts[:n]
}

// rectTargets fills a.targets with the shards that can hold points inside r
// — MBR intersection refined by the occupancy bitmaps, which prune the many
// shards whose jagged Z-curve territory merely brushes r — and feeds the
// query to each target's drift advisor, recent-query window, and load
// counter.
func (a *queryArena) rectTargets(r Rect) {
	a.r = r
	for i, ss := range a.snap.shards {
		if !ss.mayContain(r) {
			continue
		}
		a.targets = append(a.targets, i)
		ctl := a.snap.ctls[i]
		ctl.load.Add(1)
		if adv := ctl.advisor.Load(); adv != nil {
			adv.Observe(r)
		}
		ctl.recent.add(r)
	}
}

// knnTargets fills a.targets with every shard serving at least one point,
// in kNN search order, and a.dists with each target's MINDIST² from q (-1
// for the home shard, which is searched unconditionally). The home shard
// — the one q's key routes to, or, when that one serves nothing, the live
// shard nearest q — comes first; the rest follow by ascending MINDIST,
// ties by shard number. It returns the number of live points the snapshot
// serves.
func (a *queryArena) knnTargets(q Point) int {
	home := a.snap.plan.Locate(q)
	if ss := a.snap.shards[home]; ss.empty || ss.live() <= 0 {
		home = -1
	}
	live := 0
	a.dists = a.dists[:0]
	for i, ss := range a.snap.shards {
		n := ss.live()
		if ss.empty || n <= 0 {
			continue
		}
		live += n
		d := geom.MinDistSq(q, ss.bounds)
		if i == home {
			d = -1 // sorts first
		}
		// Insertion sort: shard counts are small, and it keeps equal
		// distances in shard order.
		j := len(a.targets)
		a.targets = append(a.targets, i)
		a.dists = append(a.dists, d)
		for ; j > 0 && a.dists[j-1] > d; j-- {
			a.targets[j], a.dists[j] = a.targets[j-1], a.dists[j-1]
		}
		a.targets[j], a.dists[j] = i, d
	}
	return live
}
