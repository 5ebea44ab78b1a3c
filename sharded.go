package wazi

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/storage"
	"github.com/wazi-index/wazi/internal/wal"
)

// Sharded is the serving-layer counterpart of Index: it partitions the data
// across N per-shard WaZI indexes with a workload-aware Z-order partitioner
// (hotspot regions get more, smaller shards), executes queries by parallel
// fan-out over only the shards whose bounds intersect the query, and adapts
// to workload drift by rebuilding drifted shards in the background and
// hot-swapping them in.
//
// The read data path is lock-free: every query loads an immutable snapshot
// through an atomic pointer, so writes, compactions, and rebuilds never
// block readers. (Drift monitoring is the one exception: each query takes
// a short per-shard mutex to update the advisor's histogram, and a sampled
// one for the recent-query ring.)
// Writes are serialized among themselves and land in small per-shard delta
// buffers (copy-on-write) that background compaction folds into the shard's
// index. This is the deployment model of §6.5 — build offline, serve online
// — extended with the zero-downtime adaptation the paper leaves as future
// work: each shard's RebuildAdvisor watches its observed queries, and once
// drift crosses the Figure 12 crossover threshold the shard is rebuilt with
// NewWorkloadAware on the recent query window and swapped in atomically.
type Sharded struct {
	snap atomic.Pointer[shardedSnapshot]
	mu   sync.Mutex // serializes writers, compactions, and snapshot swaps
	pool *shard.Pool
	opts shardedConfig

	// obs holds the hot-path instruments (fan-out, scan/rebuild/migration
	// latency, page reads); nil under WithoutObservability.
	obs *ShardedObs

	// Online repartitioning state (all guarded by mu). While a migration is
	// in flight, every write is applied to the serving (old-plan) snapshot
	// as usual AND appended to repartLog, which the migration replays onto
	// the new-plan shards — routed by the new plan — before the atomic plan
	// swap. repartTarget is the plan being migrated to, exposed for
	// observability and persisted by Save as the migration record.
	repartInFlight bool
	repartLog      []shardOp
	repartTarget   *shard.Plan
	// repartSeen holds the per-shard load totals at the last CheckRepartition
	// pass, so the advisor judges imbalance on load deltas, not lifetime sums.
	repartSeen []int64
	// repartFutile counts consecutive advisor-triggered migrations that
	// learned an Equal plan and no-opped. Each futile attempt costs a full
	// materialize (every page of every shard on the disk backend), so the
	// advisor backs off exponentially: a workload that is permanently
	// skewed but already optimally partitioned (e.g. every query on one
	// cell — some shard must own it) would otherwise re-learn and discard
	// the same plan every repartitionMinLoad queries forever.
	repartFutile int
	// planRef is the normalized histogram of the workload the serving plan
	// was learned from — the reference the plan-drift trigger compares the
	// aggregated live windows against. Nil when the plan was learned without
	// a workload (drift is then judged by imbalance alone).
	planRef []float64

	// Logical operation counters, maintained at this layer because shard
	// counters tally per-shard work, not per-caller operations.
	rangeQs      atomic.Int64
	pointQs      atomic.Int64
	knnQs        atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	rebuilds     atomic.Int64
	repartitions atomic.Int64

	// retired accumulates the final counters of shard indexes replaced by
	// compaction or rebuild, so aggregate Stats never move backwards.
	// Guarded by mu.
	retired Stats

	// retiredStores are page stores of disk-backed shard indexes replaced
	// by rebuilds. They stay open (with dropped caches) so that readers
	// still holding the old snapshot can finish, and their files stay on
	// disk so that a snapshot Saved concurrently with the rebuild remains
	// warm-startable; Close (or, past maxRetiredStores, garbage
	// collection) releases the descriptors and the next start's
	// stale-file sweep reclaims the files. Guarded by mu.
	retiredStores []io.Closer

	// Write-ahead log state (see sharded_wal.go). wal is set once during
	// construction and never replaced; walRecovering suppresses re-logging
	// while the startup replay drives ops through the public write path;
	// walBuf is the append scratch buffer (guarded by mu); lastSaveCut is
	// the log position the most recent Save captured, the only cut
	// TruncateWAL will truncate at.
	wal           *wal.WAL
	walRecovering bool
	walRecovered  wal.ReplayStats
	walBuf        []byte
	lastSaveCut   atomic.Uint64

	loop   chan struct{} // closed to stop the rebuild loop; nil when disabled
	kicked chan struct{} // nudges the loop when a backlog crosses the threshold
	wg     sync.WaitGroup
	closed bool
}

// shardedSnapshot is the immutable world a query runs against. The
// partition plan and the per-shard control blocks travel WITH the snapshot:
// an online repartition replaces plan, shards, and ctls in one atomic swap,
// so a reader (or a pinned View) always routes with the plan that matches
// the shard array it sees — old-plan readers keep routing against the old
// pair mid-migration, new-plan readers against the new. The ctl objects
// themselves are mutable (advisors, rings, load counters); only the slice
// and its pairing with the plan are immutable per snapshot.
type shardedSnapshot struct {
	plan   *shard.Plan
	shards []*shardSnap
	ctls   []*shardCtl
	// epoch counts completed repartitions; it versions the page-file
	// namespace so a migration's fresh shard files never collide with the
	// retiring plan's.
	epoch int
}

// shardSnap is one shard's immutable state: a built index (nil while the
// shard holds only buffered writes), the insert buffer, and delete
// tombstones. All three are copy-on-write: writers build a new shardSnap
// and swap the snapshot; readers never see a mutation.
type shardSnap struct {
	idx    *Index        // immutable once published; nil for an empty shard
	extra  []Point       // inserts not yet compacted into idx
	dead   map[Point]int // tombstoned multiset of deletes against idx
	deadN  int           // total tombstone count
	bounds Rect          // MBR of live contents (never shrinks on delete)
	empty  bool
	// occ is idx's occupancy bitmap (see sharded_occupancy.go); nil means
	// "assume anything" (no pruning). It describes idx only — the insert
	// buffer is covered by extraBounds, the MBR of extra (meaningful only
	// while extra is non-empty; it never shrinks on delete, which is
	// conservative for pruning).
	occ         *occupancy
	extraBounds Rect
}

// live returns the number of points the shard currently serves.
func (s *shardSnap) live() int {
	n := len(s.extra) - s.deadN
	if s.idx != nil {
		n += s.idx.Len()
	}
	return n
}

// backlog is the write-buffer pressure that triggers compaction.
func (s *shardSnap) backlog() int { return len(s.extra) + s.deadN }

// shardCtl is a shard's mutable control state. advisor is an atomic pointer
// because query paths observe into it while rebuilds replace it; the other
// fields are guarded by Sharded.mu.
type shardCtl struct {
	advisor    atomic.Pointer[RebuildAdvisor]
	recent     *queryRing
	rebuilding bool
	log        []shardOp // writes arriving while a rebuild is in flight
	rebuilds   int
	// gen numbers the shard's page-file generation under disk storage;
	// every rebuild writes a fresh file so readers of the old snapshot are
	// never invalidated.
	gen int
	// load counts queries this shard served (range/count fan-out targets and
	// point lookups). The repartition advisor reads the cross-shard load
	// vector to detect imbalance; a repartition resets it (fresh ctls).
	load atomic.Int64
}

// shardOp is one logged write, replayed onto a freshly rebuilt shard index
// before it is swapped in.
type shardOp struct {
	p   Point
	del bool
}

// queryRing is a thread-safe bounded ring of recently observed queries; its
// contents become the anticipated workload of a drift-triggered rebuild.
// Only one in ringSampleRate observations enters the mutex — the ring feeds
// rebuild workloads, where a sample is as good as the full stream, and the
// query hot path should shed shared-state traffic where it can.
type queryRing struct {
	tick   atomic.Uint64
	mu     sync.Mutex
	buf    []Rect
	next   int
	filled bool
}

const ringSampleRate = 4

func newQueryRing(n int) *queryRing { return &queryRing{buf: make([]Rect, n)} }

func (r *queryRing) add(q Rect) {
	if r.tick.Add(1)%ringSampleRate != 1 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = q
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// preload seeds the ring with an already-sampled query window (a restored
// snapshot's), bypassing the live-path sampling.
func (r *queryRing) preload(qs []Rect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range qs {
		r.buf[r.next] = q
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
			r.filled = true
		}
	}
}

func (r *queryRing) snapshot() []Rect {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return append([]Rect(nil), r.buf...)
	}
	return append([]Rect(nil), r.buf[:r.next]...)
}

// shardedConfig collects ShardedOption values.
type shardedConfig struct {
	shards              int
	workers             int
	indexOpts           []Option
	driftThreshold      float64
	windowSize          int
	compactThreshold    int
	rebuildInterval     time.Duration
	autoRebuild         bool
	autoRepartition     bool
	repartitionMaxSkew  float64
	repartitionMinLoad  int
	repartitionMaxDrift float64
	storageDir          string
	cachePages          int
	noObs               bool
	walDir              string
	walSync             string
	walGroupWindow      time.Duration
	walSegmentBytes     int64
	walFS               wal.FS
}

// ShardedOption customizes NewSharded.
type ShardedOption func(*shardedConfig)

// WithShards sets the shard count (default: GOMAXPROCS, capped at 64).
func WithShards(n int) ShardedOption { return func(c *shardedConfig) { c.shards = n } }

// WithWorkers sets the fan-out worker-pool size (default: GOMAXPROCS).
func WithWorkers(n int) ShardedOption { return func(c *shardedConfig) { c.workers = n } }

// WithIndexOptions forwards options to every per-shard index build,
// including drift rebuilds.
func WithIndexOptions(opts ...Option) ShardedOption {
	return func(c *shardedConfig) { c.indexOpts = opts }
}

// WithDriftThreshold sets the per-shard drift level at which a rebuild
// triggers (default 0.6, the paper's Figure 12 crossover).
func WithDriftThreshold(t float64) ShardedOption {
	return func(c *shardedConfig) { c.driftThreshold = t }
}

// WithDriftWindow sets how many recent queries per shard inform drift
// detection and rebuild workloads (default 1024).
func WithDriftWindow(n int) ShardedOption { return func(c *shardedConfig) { c.windowSize = n } }

// WithCompactThreshold sets the per-shard write-buffer size (inserts plus
// tombstones) at which the buffer is compacted into the shard's index
// (default 1024).
func WithCompactThreshold(n int) ShardedOption {
	return func(c *shardedConfig) { c.compactThreshold = n }
}

// WithRebuildInterval sets how often the background control loop polls
// shards for drift and backlog (default 200ms).
func WithRebuildInterval(d time.Duration) ShardedOption {
	return func(c *shardedConfig) { c.rebuildInterval = d }
}

// WithoutAutoRebuild disables the background control loop. Compaction then
// happens synchronously on the writing goroutine, and drift rebuilds only
// when CheckRebuilds is called. Repartitioning likewise happens only when
// CheckRepartition or Repartition is called.
func WithoutAutoRebuild() ShardedOption { return func(c *shardedConfig) { c.autoRebuild = false } }

// WithoutAutoRepartition keeps the background control loop (drift rebuilds,
// compaction) but stops it from migrating to a new partition plan on its
// own; CheckRepartition and Repartition remain available to the caller.
// This is the "static plan" configuration of the repartition experiment.
func WithoutAutoRepartition() ShardedOption {
	return func(c *shardedConfig) { c.autoRepartition = false }
}

// WithRepartitionMaxSkew sets the cross-shard load imbalance (hottest
// shard's load as a multiple of the mean over loaded shards, see
// shard.Imbalance) beyond which the control loop re-learns the partition
// plan and migrates to it live (default 3.0). Lower values repartition more
// eagerly.
func WithRepartitionMaxSkew(s float64) ShardedOption {
	return func(c *shardedConfig) { c.repartitionMaxSkew = s }
}

// WithRepartitionMinLoad sets how many queries must have been served since
// the last repartition check before imbalance is judged (default 4096) —
// the advisor never migrates on a handful of samples.
func WithRepartitionMinLoad(n int) ShardedOption {
	return func(c *shardedConfig) { c.repartitionMinLoad = n }
}

// WithRepartitionMaxDrift sets the plan-drift level — total-variation
// distance between the observed global workload histogram and the serving
// plan's training workload — beyond which the control loop re-learns the
// plan even without load imbalance (default 0.25: clearly above the ~0.1
// sampling noise of two windows drawn from one distribution, and at the
// low edge of real shifts — hotspot-shift's rank reversal measures
// ~0.3 even through ring sampling).
func WithRepartitionMaxDrift(d float64) ShardedOption {
	return func(c *shardedConfig) { c.repartitionMaxDrift = d }
}

// WithShardedStorage puts every shard's leaf pages in a disk-resident page
// file under dir (one file per shard per rebuild generation), each fronted
// by a workload-aware block cache of cachePages pages (0 selects the
// default, 1024). Save then writes attached snapshots whose warm start
// adopts the existing page files instead of rewriting them, and stale
// generations are swept on the next cold or warm start. A disk-backed
// Sharded must not be queried after Close (which releases the page files),
// and a directory must not be shared by two live instances. See
// docs/STORAGE.md.
func WithShardedStorage(dir string, cachePages int) ShardedOption {
	return func(c *shardedConfig) {
		c.storageDir = dir
		c.cachePages = cachePages
	}
}

func (c *shardedConfig) fill() {
	procs := runtime.GOMAXPROCS(0)
	if c.shards <= 0 {
		c.shards = procs
		if c.shards > 64 {
			c.shards = 64
		}
	}
	if c.workers <= 0 {
		c.workers = procs
	}
	if c.driftThreshold <= 0 {
		c.driftThreshold = 0.6
	}
	if c.windowSize <= 0 {
		c.windowSize = 1024
	}
	if c.compactThreshold <= 0 {
		c.compactThreshold = 1024
	}
	if c.rebuildInterval <= 0 {
		c.rebuildInterval = 200 * time.Millisecond
	}
	if c.repartitionMaxSkew <= 0 {
		c.repartitionMaxSkew = 3.0
	}
	if c.repartitionMinLoad <= 0 {
		c.repartitionMinLoad = 4096
	}
	if c.repartitionMaxDrift <= 0 {
		c.repartitionMaxDrift = 0.25
	}
}

// NewSharded builds a sharded serving layer over points: the workload-aware
// partitioner assigns each point a shard, every non-empty shard gets its own
// WaZI index built with the slice of workload that intersects its bounds,
// and (unless disabled) a background goroutine starts watching for drift.
// Call Close when done to stop the background machinery.
func NewSharded(points []Point, workload []Rect, opts ...ShardedOption) (*Sharded, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	cfg := shardedConfig{autoRebuild: true, autoRepartition: true}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.fill()

	if cfg.storageDir != "" {
		if err := os.MkdirAll(cfg.storageDir, 0o755); err != nil {
			return nil, fmt.Errorf("wazi: creating storage dir: %w", err)
		}
		// A cold build replaces every page file; files from a previous
		// process (including retired generations) are stale.
		sweepStalePageFiles(cfg.storageDir, nil)
	}
	plan := shard.Partition(points, workload, cfg.shards)
	s := &Sharded{opts: cfg}
	if !cfg.noObs {
		s.obs = newShardedObs()
	}
	s.planRef = queryHist(plan.Bounds(), workload)
	snap := &shardedSnapshot{plan: plan, shards: make([]*shardSnap, plan.NumShards()),
		ctls: make([]*shardCtl, plan.NumShards())}
	for i, group := range plan.Groups {
		ctl := &shardCtl{recent: newQueryRing(cfg.windowSize)}
		snap.ctls[i] = ctl
		if len(group) == 0 {
			snap.shards[i] = &shardSnap{empty: true}
			continue
		}
		bounds := geom.RectFromPoints(group)
		shardQs := intersectingQueries(workload, bounds)
		idx, err := buildShardIndex(group, shardQs, s.shardIndexOptions(0, i, 0))
		if err != nil {
			// Unwind the shards already built so an aborted cold start
			// leaks no page-file descriptors.
			for _, built := range snap.shards {
				if built != nil && built.idx != nil {
					built.idx.Close()
				}
			}
			return nil, fmt.Errorf("wazi: building shard %d: %w", i, err)
		}
		s.attachStoreObs(idx)
		snap.shards[i] = &shardSnap{idx: idx, bounds: idx.Bounds(),
			occ: buildOccupancy(group, idx.Bounds())}
		ctl.advisor.Store(NewRebuildAdvisor(idx.Bounds(), shardQs, cfg.windowSize, cfg.driftThreshold))
	}
	s.snap.Store(snap)
	s.pool = shard.NewPool(cfg.workers)
	// Replay any WAL tail before the background loop starts: a cold build
	// is deterministic in its inputs, so cold build + full replay recovers
	// every acknowledged write even without a snapshot.
	if err := s.initWAL(0); err != nil {
		s.pool.Close()
		for _, built := range snap.shards {
			if built.idx != nil {
				built.idx.Close()
			}
		}
		return nil, err
	}
	if cfg.autoRebuild {
		s.loop = make(chan struct{})
		s.kicked = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.rebuildLoop()
	}
	return s, nil
}

// buildShardIndex builds one shard's index, workload-aware when the shard
// has an anticipated workload.
func buildShardIndex(pts []Point, queries []Rect, opts []Option) (*Index, error) {
	if len(queries) > 0 {
		return NewWorkloadAware(pts, queries, opts...)
	}
	return New(pts, opts...)
}

// shardPageFile names shard i's generation-gen page file under plan epoch
// e. The epoch namespaces migrations: a repartition's fresh shard files can
// never collide with the retiring plan's, whatever the shard counts.
func shardPageFile(epoch, i, gen int) string {
	return fmt.Sprintf("shard-e%03d-%04d-g%06d.pages", epoch, i, gen)
}

// shardIndexOptions returns the per-shard build options: the configured
// index options plus, under disk storage, the shard's page-file placement.
func (s *Sharded) shardIndexOptions(epoch, i, gen int) []Option {
	if s.opts.storageDir == "" {
		return s.opts.indexOpts
	}
	opts := append([]Option(nil), s.opts.indexOpts...)
	return append(opts, WithStorage(Storage{
		Path:       filepath.Join(s.opts.storageDir, shardPageFile(epoch, i, gen)),
		CachePages: s.opts.cachePages,
	}))
}

// sweepStalePageFiles removes the page files in dir whose base name is not
// in keep — retired generations a previous process left behind.
func sweepStalePageFiles(dir string, keep map[string]bool) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.pages"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if !keep[filepath.Base(m)] {
			os.Remove(m)
		}
	}
}

// maxRetiredStores bounds how many replaced page stores the Sharded itself
// keeps referenced (and therefore closes deterministically at Close). A
// store evicted from this FIFO is NOT closed — a long-lived View may still
// fault pages through it — it is merely unreferenced, so once the last
// snapshot using it becomes unreachable, the os.File finalizer releases
// the descriptor. Descriptor usage is thus bounded by live readers plus
// this cap, never by total rebuild count.
const maxRetiredStores = 8

// retireIndexStore parks a replaced disk-backed shard index's page store:
// caches dropped (releasing memory), file descriptor kept open for readers
// still on the old snapshot, file left on disk for concurrently-saved
// snapshots. Close, the FIFO cap (via GC), and the next start's sweep
// reclaim them. Callers hold s.mu.
func (s *Sharded) retireIndexStore(idx *Index) {
	if ds, ok := idx.z.Store().(*storage.DiskStore); ok {
		ds.DropCaches()
		s.retiredStores = append(s.retiredStores, ds)
		if len(s.retiredStores) > maxRetiredStores {
			s.retiredStores = append([]io.Closer(nil), s.retiredStores[len(s.retiredStores)-maxRetiredStores:]...)
		}
	}
}

// discardIndexStorage releases a freshly built index that lost its reason
// to exist (the shard emptied during the rebuild), removing its page file.
func discardIndexStorage(idx *Index) {
	if ds, ok := idx.z.Store().(*storage.DiskStore); ok {
		path := ds.Path()
		ds.Close()
		os.Remove(path)
	}
}

func intersectingQueries(workload []Rect, bounds Rect) []Rect {
	var out []Rect
	for _, q := range workload {
		if q.Intersects(bounds) {
			out = append(out, q)
		}
	}
	return out
}

// Close stops the background control loop and the worker pool. For the
// RAM-resident default, queries issued after Close still work (fan-out
// degrades to inline execution) and writes remain valid, with compaction
// running synchronously on the writing goroutine once a shard's backlog
// overflows — as under WithoutAutoRebuild. Under WithShardedStorage, Close
// additionally releases every shard's page file (current and retired), so
// a disk-backed Sharded must not be used after Close.
func (s *Sharded) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.loop != nil {
		close(s.loop)
		s.wg.Wait()
	}
	s.closeWAL()
	s.pool.Close()
	if s.opts.storageDir != "" {
		s.mu.Lock()
		for _, ss := range s.snap.Load().shards {
			if ss.idx != nil {
				ss.idx.Close()
			}
		}
		for _, c := range s.retiredStores {
			c.Close()
		}
		s.retiredStores = nil
		s.mu.Unlock()
	}
}

// ---------------------------------------------------------------- queries

// RangeQuery returns all indexed points inside the closed rectangle r,
// fanning out to the shards whose bounds intersect r.
func (s *Sharded) RangeQuery(r Rect) []Point {
	s.rangeQs.Add(1)
	return s.rangeAppendFromSnap(nil, s.snap.Load(), r, nil)
}

// RangeQueryAppend appends the points inside r to dst and returns the
// extended slice — the buffer-reusing form of RangeQuery, symmetric with
// Index.RangeQueryAppend. Steady-state callers cycling a buffer through it
// allocate nothing: the fan-out runs on a pooled per-query arena.
func (s *Sharded) RangeQueryAppend(dst []Point, r Rect) []Point {
	s.rangeQs.Add(1)
	return s.rangeAppendFromSnap(dst, s.snap.Load(), r, nil)
}

// rangeFromSnap runs a range query against one pinned snapshot; View and
// the public query path share it. tr, when non-nil, receives per-shard
// scan spans and a page-I/O attribution span.
func (s *Sharded) rangeFromSnap(snap *shardedSnapshot, r Rect, tr *obs.QueryTrace) []Point {
	return s.rangeAppendFromSnap(nil, snap, r, tr)
}

func (s *Sharded) rangeAppendFromSnap(dst []Point, snap *shardedSnapshot, r Rect, tr *obs.QueryTrace) []Point {
	if done := s.traceIO(snap, tr); done != nil {
		defer done()
	}
	a := s.getArena(snap, tr)
	defer a.release()
	a.rectTargets(r)
	s.obs.observeFanout(len(snap.shards), len(a.targets))
	n := len(a.targets)
	if n == 0 {
		return dst
	}
	if n == 1 || s.pool.Inline() {
		// No parallelism to harvest: scan straight into dst, skipping the
		// per-target buffers and the merge copy.
		for _, si := range a.targets {
			t0, live := s.scanStart(tr)
			before := len(dst)
			dst = shardRange(snap.shards[si], r, dst)
			if live {
				s.endScan(tr, si, t0, len(dst)-before)
			}
		}
		return dst
	}
	a.ensure(n)
	s.pool.Run(n, a.rangeFn)
	total := 0
	for _, buf := range a.bufs {
		total += len(buf)
	}
	dst = slices.Grow(dst, total)
	for _, buf := range a.bufs {
		dst = append(dst, buf...)
	}
	return dst
}

// RangeCount returns the number of points inside r without materializing
// them.
func (s *Sharded) RangeCount(r Rect) int {
	s.rangeQs.Add(1)
	return s.countFromSnap(s.snap.Load(), r, nil)
}

// countFromSnap runs a range count against one pinned snapshot.
func (s *Sharded) countFromSnap(snap *shardedSnapshot, r Rect, tr *obs.QueryTrace) int {
	if done := s.traceIO(snap, tr); done != nil {
		defer done()
	}
	a := s.getArena(snap, tr)
	defer a.release()
	a.rectTargets(r)
	s.obs.observeFanout(len(snap.shards), len(a.targets))
	n := len(a.targets)
	total := 0
	switch {
	case n == 0:
	case n == 1 || s.pool.Inline():
		for _, si := range a.targets {
			t0, live := s.scanStart(tr)
			c := shardCount(snap.shards[si], r)
			if live {
				s.endScan(tr, si, t0, c)
			}
			total += c
		}
	default:
		a.ensure(n)
		s.pool.Run(n, a.countFn)
		for _, c := range a.counts {
			total += c
		}
	}
	return total
}

// mayContain reports whether the shard can possibly hold a point inside r:
// the index part must overlap an occupied cell, or the insert buffer's MBR
// must intersect r. False negatives are impossible — occupancy never
// clears bits and extraBounds never shrinks — so skipping a shard is
// always sound.
func (ss *shardSnap) mayContain(r Rect) bool {
	if ss.empty || !ss.bounds.Intersects(r) {
		return false
	}
	if ss.idx != nil && (ss.occ == nil || ss.occ.overlaps(r)) {
		return true
	}
	return len(ss.extra) > 0 && ss.extraBounds.Intersects(r)
}

// shardRange runs a range query against one immutable shard snapshot.
func shardRange(ss *shardSnap, r Rect, dst []Point) []Point {
	before := len(dst)
	if ss.idx != nil {
		dst = ss.idx.RangeQueryAppend(dst, r)
	}
	if ss.deadN > 0 {
		dst = filterDead(dst, before, ss.dead)
	}
	for _, p := range ss.extra {
		if r.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

func shardCount(ss *shardSnap, r Rect) int {
	n := 0
	if ss.idx != nil {
		n = ss.idx.RangeCount(r)
		// Every tombstone refers to points present in the index (Delete
		// checks before tombstoning), so subtracting the in-rectangle
		// tombstones is exact — no need to materialize the result set.
		for p, c := range ss.dead {
			if r.Contains(p) {
				n -= c
			}
		}
	}
	for _, p := range ss.extra {
		if r.Contains(p) {
			n++
		}
	}
	return n
}

// filterDead removes tombstoned occurrences from pts[from:], respecting
// multiset semantics: a tombstone count of c removes at most c copies.
func filterDead(pts []Point, from int, dead map[Point]int) []Point {
	var remaining map[Point]int
	out := pts[:from]
	for _, p := range pts[from:] {
		c, ok := dead[p]
		if !ok {
			out = append(out, p)
			continue
		}
		if remaining == nil {
			remaining = make(map[Point]int, len(dead))
			for k, v := range dead {
				remaining[k] = v
			}
			c = remaining[p]
		} else {
			c = remaining[p]
		}
		if c > 0 {
			remaining[p] = c - 1
			continue
		}
		out = append(out, p)
	}
	return out
}

// PointQuery reports whether a point equal to p is indexed. Z-order routing
// makes this a single-shard lookup.
func (s *Sharded) PointQuery(p Point) bool {
	s.pointQs.Add(1)
	return s.pointFromSnap(s.snap.Load(), p, nil)
}

// pointFromSnap runs a point query against one pinned snapshot, routing
// with the snapshot's own plan so a View pinned across a repartition stays
// consistent with the shard array it holds.
func (s *Sharded) pointFromSnap(snap *shardedSnapshot, p Point, tr *obs.QueryTrace) bool {
	if done := s.traceIO(snap, tr); done != nil {
		defer done()
	}
	i := snap.plan.Locate(p)
	t0, live := s.scanStart(tr)
	found := pointInShard(snap, i, p)
	if live {
		n := 0
		if found {
			n = 1
		}
		s.endScan(tr, i, t0, n)
	}
	return found
}

// pointInShard answers a point query against shard i of a snapshot.
func pointInShard(snap *shardedSnapshot, i int, p Point) bool {
	snap.ctls[i].load.Add(1)
	ss := snap.shards[i]
	if ss.empty {
		return false
	}
	for _, q := range ss.extra {
		if q == p {
			return true
		}
	}
	if ss.idx == nil {
		return false
	}
	if ss.deadN > 0 {
		if d := ss.dead[p]; d > 0 {
			// Some copies are tombstoned; survive only if the index holds more.
			return ss.idx.RangeCount(pointRect(p)) > d
		}
	}
	return ss.idx.PointQuery(p)
}

func pointRect(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// KNN returns the k points nearest to q, closest first. The search is
// nearest-shard-first: a full top-k on q's home shard certifies a radius,
// and every other shard is searched only through the radius-bounded window
// it could still contribute from — usually none is. Equidistant neighbours
// are ordered by (distance, X, Y), so the result is deterministic across
// shard layouts and backends.
func (s *Sharded) KNN(q Point, k int) []Point {
	s.knnQs.Add(1)
	return s.knnAppendFromSnap(nil, s.snap.Load(), q, k, nil)
}

// KNNAppend appends the k nearest neighbours of q to dst, nearest first —
// the buffer-reusing form of KNN, symmetric with Index.KNNAppend.
func (s *Sharded) KNNAppend(dst []Point, q Point, k int) []Point {
	s.knnQs.Add(1)
	return s.knnAppendFromSnap(dst, s.snap.Load(), q, k, nil)
}

// knnFromSnap runs a kNN query against one pinned snapshot.
func (s *Sharded) knnFromSnap(snap *shardedSnapshot, q Point, k int, tr *obs.QueryTrace) []Point {
	return s.knnAppendFromSnap(nil, snap, q, k, tr)
}

// knnAppendFromSnap searches the shards sequentially, home shard first and
// the rest by ascending MINDIST from q to their bounds (see knnTargets).
// Candidates merge through a bounded max-heap on the arena's reusable
// buffer: the root is the worst of the k best by the (distance, X, Y) total
// order, so ties at the cut line resolve identically no matter which shard
// produced them. Once the heap holds k points its root's distance r bounds
// the answer, and each later shard is either skipped (its MINDIST exceeds
// r, or no occupied cell meets the window) or range-scanned over the
// square window [q±r]; while the heap is short, a shard gets a full top-k.
func (s *Sharded) knnAppendFromSnap(dst []Point, snap *shardedSnapshot, q Point, k int, tr *obs.QueryTrace) []Point {
	if k <= 0 {
		return dst
	}
	if done := s.traceIO(snap, tr); done != nil {
		defer done()
	}
	a := s.getArena(snap, tr)
	defer a.release()
	// Clamp k to the live count before any arithmetic on it: the per-shard
	// over-fetch adds the tombstone count, which would wrap for huge k.
	k = min(k, a.knnTargets(q))
	a.q, a.k = q, k
	a.ensure(len(a.targets))
	h := a.heap[:0]
	searched := 0
	for ti, si := range a.targets {
		if len(h) < k {
			a.knnFn(ti)
		} else {
			r2 := geom.DistSq(h[0], q)
			if a.dists[ti] > r2 {
				// The heap fills on the home shard, so ti > 0 here: targets
				// from there on are ordered by MINDIST and r only shrinks,
				// so no later shard can beat the root either.
				break
			}
			half := knnWindowHalf(r2)
			w := Rect{MinX: q.X - half, MinY: q.Y - half, MaxX: q.X + half, MaxY: q.Y + half}
			if !snap.shards[si].mayContain(w) {
				continue
			}
			a.r = w
			a.rangeFn(ti)
		}
		searched++
		for _, p := range a.bufs[ti] {
			h = geom.PushBounded(h, p, k, q)
		}
	}
	s.obs.observeFanout(len(snap.shards), searched)
	a.heap = h
	geom.SortByDistance(h, q)
	return append(dst, h...)
}

// knnWindowHalf returns the half-width of a square window around q that
// holds every point p with geom.DistSq(p, q) <= r2, so a point at exactly
// the k-th distance in another shard is still scanned. sqrt(r2) alone
// falls short: the difference, squares, sum and root each round, and for
// a few percent of points on an axis through q the root lands one ULP
// below the coordinate difference. The root is therefore nudged up by a
// few ULPs (relative 2^-50, above the accumulated rounding error) — a
// wider window only admits candidates the heap then rejects. The floor
// covers distances whose squares underflow to zero or to subnormals.
func knnWindowHalf(r2 float64) float64 {
	return max(math.Sqrt(r2)*(1+0x1p-50), 0x1p-500)
}

// shardKNNAppend appends one shard's k nearest candidates to q onto dst
// (the shard's true top-k all appear, ordered by (distance, X, Y) in the
// indexed part before insert-buffer replacement).
func shardKNNAppend(dst []Point, ss *shardSnap, q Point, k int) []Point {
	base := len(dst)
	if ss.idx != nil {
		// Tombstoned points may occupy top spots; over-fetch so k live
		// candidates survive the filter. KNNAppend returns them sorted, so
		// truncation keeps the nearest k.
		dst = ss.idx.KNNAppend(dst, q, k+ss.deadN)
		if ss.deadN > 0 {
			dst = filterDead(dst, base, ss.dead)
		}
		if len(dst)-base > k {
			dst = dst[:base+k]
		}
	}
	for _, p := range ss.extra {
		if len(dst)-base < k {
			dst = append(dst, p)
			continue
		}
		// Replace the current worst if p precedes it in the (distance, X, Y)
		// order.
		wi := base
		for i := base + 1; i < len(dst); i++ {
			if geom.DistLess(dst[wi], dst[i], q) {
				wi = i
			}
		}
		if geom.DistLess(p, dst[wi], q) {
			dst[wi] = p
		}
	}
	return dst
}

// ---------------------------------------------------------------- writes

// Insert adds p. The write lands in the owning shard's copy-on-write delta
// buffer; readers observe it on their next snapshot load, without blocking.
// During a live repartition the write additionally joins the migration log,
// which the migration replays — routed by the new plan — before its swap.
func (s *Sharded) Insert(p Point) {
	s.mu.Lock()
	snap := s.snap.Load()
	i := snap.plan.Locate(p)
	ss := snap.shards[i]
	ns := &shardSnap{
		idx:   ss.idx,
		extra: append(append(make([]Point, 0, len(ss.extra)+1), ss.extra...), p),
		dead:  ss.dead,
		deadN: ss.deadN,
		occ:   ss.occ,
	}
	if ss.empty {
		ns.bounds = pointRect(p)
	} else {
		ns.bounds = ss.bounds.ExtendPoint(p)
	}
	if len(ss.extra) == 0 {
		ns.extraBounds = pointRect(p)
	} else {
		ns.extraBounds = ss.extraBounds.ExtendPoint(p)
	}
	s.swapShard(snap, i, ns)
	s.inserts.Add(1)
	ctl := snap.ctls[i]
	if ctl.rebuilding {
		ctl.log = append(ctl.log, shardOp{p: p})
	}
	if s.repartInFlight {
		s.repartLog = append(s.repartLog, shardOp{p: p})
	}
	// Log under mu, right after the apply: sequence order then equals
	// apply order, so replay reproduces exactly this history.
	walSeq := s.walAppendLocked(p, false)
	overflow := !ctl.rebuilding && !s.repartInFlight && ns.backlog() >= s.opts.compactThreshold
	background := s.loop != nil && !s.closed
	s.mu.Unlock()
	s.walAck(walSeq)
	if overflow {
		if background {
			s.kick()
		} else {
			s.rebuildShard(i)
		}
	}
}

// Delete removes one point equal to p, reporting whether one was found.
// Deletes against the immutable shard index become tombstones that
// compaction later clears.
func (s *Sharded) Delete(p Point) bool {
	s.mu.Lock()
	snap := s.snap.Load()
	i := snap.plan.Locate(p)
	ss := snap.shards[i]
	ctl := snap.ctls[i]

	// A buffered insert is the cheapest thing to undo.
	for j, q := range ss.extra {
		if q == p {
			extra := append([]Point(nil), ss.extra[:j]...)
			extra = append(extra, ss.extra[j+1:]...)
			ns := &shardSnap{idx: ss.idx, extra: extra, dead: ss.dead, deadN: ss.deadN,
				bounds: ss.bounds, empty: ss.idx == nil && len(extra) == 0 && ss.deadN == 0,
				occ: ss.occ, extraBounds: ss.extraBounds}
			s.swapShard(snap, i, ns)
			s.deletes.Add(1)
			if ctl.rebuilding {
				ctl.log = append(ctl.log, shardOp{p: p, del: true})
			}
			if s.repartInFlight {
				s.repartLog = append(s.repartLog, shardOp{p: p, del: true})
			}
			walSeq := s.walAppendLocked(p, true)
			s.mu.Unlock()
			s.walAck(walSeq)
			return true
		}
	}
	if ss.idx == nil {
		s.mu.Unlock()
		return false
	}
	have := ss.idx.RangeCount(pointRect(p))
	if have <= ss.dead[p] {
		s.mu.Unlock()
		return false
	}
	dead := make(map[Point]int, len(ss.dead)+1)
	for k, v := range ss.dead {
		dead[k] = v
	}
	dead[p]++
	ns := &shardSnap{idx: ss.idx, extra: ss.extra, dead: dead, deadN: ss.deadN + 1,
		bounds: ss.bounds, occ: ss.occ, extraBounds: ss.extraBounds}
	s.swapShard(snap, i, ns)
	s.deletes.Add(1)
	if ctl.rebuilding {
		ctl.log = append(ctl.log, shardOp{p: p, del: true})
	}
	if s.repartInFlight {
		s.repartLog = append(s.repartLog, shardOp{p: p, del: true})
	}
	walSeq := s.walAppendLocked(p, true)
	overflow := !ctl.rebuilding && !s.repartInFlight && ns.backlog() >= s.opts.compactThreshold
	background := s.loop != nil && !s.closed
	s.mu.Unlock()
	s.walAck(walSeq)
	if overflow {
		if background {
			s.kick()
		} else {
			s.rebuildShard(i)
		}
	}
	return true
}

// swapShard publishes a snapshot identical to old except for shard i,
// keeping the plan/ctls/epoch pairing intact. Callers hold s.mu.
func (s *Sharded) swapShard(old *shardedSnapshot, i int, ns *shardSnap) {
	shards := append([]*shardSnap(nil), old.shards...)
	shards[i] = ns
	s.snap.Store(&shardedSnapshot{plan: old.plan, shards: shards, ctls: old.ctls, epoch: old.epoch})
}

func (s *Sharded) kick() {
	select {
	case s.kicked <- struct{}{}:
	default:
	}
}

// ------------------------------------------------------------- adaptation

// rebuildLoop is the background control loop: every interval (or sooner,
// when a writer signals backlog pressure) it scans the shards and rebuilds
// any that drifted or overflowed, then asks the plan advisor whether
// cross-shard load imbalance warrants re-learning the partition plan.
func (s *Sharded) rebuildLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.rebuildInterval)
	defer t.Stop()
	for {
		select {
		case <-s.loop:
			return
		case <-t.C:
		case <-s.kicked:
		}
		s.CheckRebuilds()
		if s.opts.autoRepartition {
			s.CheckRepartition()
		}
	}
}

// CheckRebuilds scans every shard and rebuilds those whose drift crossed
// the threshold or whose write backlog crossed the compaction threshold,
// hot-swapping each rebuilt index in. It returns the number of shards
// rebuilt. The background loop calls this periodically; tests and callers
// running WithoutAutoRebuild can call it directly.
func (s *Sharded) CheckRebuilds() int {
	n := 0
	snap := s.snap.Load()
	for i := range snap.ctls {
		ss := snap.shards[i]
		drifted := false
		if a := snap.ctls[i].advisor.Load(); a != nil {
			drifted = a.RebuildRecommended()
		}
		if drifted || ss.backlog() >= s.opts.compactThreshold {
			if s.rebuildShard(i) {
				n++
			}
		}
	}
	return n
}

// rebuildShard rebuilds shard i from its current live points with the
// recently observed queries as the anticipated workload, then swaps the
// result in. Readers are never blocked: the build runs without locks, and
// writes that arrive meanwhile are logged and replayed onto the new index
// before the swap. Reports whether a swap happened.
//
// Rebuilds and repartitions exclude each other: a rebuild never starts
// while a migration is in flight (checked here), and a migration never
// starts while any shard is rebuilding (checked in repartition). Both flags
// are guarded by s.mu, so the snapshot's plan/ctls pairing cannot change
// between this capture and the final swap.
func (s *Sharded) rebuildShard(i int) bool {
	s.mu.Lock()
	snap := s.snap.Load()
	if s.repartInFlight || s.closed || i >= len(snap.shards) {
		// i can exceed the shard count when a migration completed between
		// the caller observing a backlog and this call; the new plan's
		// control loop pass will pick up whatever pressure remains.
		s.mu.Unlock()
		return false
	}
	ctl := snap.ctls[i]
	if ctl.rebuilding {
		s.mu.Unlock()
		return false
	}
	ss := snap.shards[i]
	recent := ctl.recent.snapshot()
	gen := ctl.gen
	epoch := snap.epoch
	ctl.rebuilding = true
	ctl.log = nil
	s.mu.Unlock()

	rebuildStart := time.Now()

	// Materialize outside the mutex: every captured structure is immutable
	// copy-on-write, and for a disk-backed shard this reads all of its
	// pages — holding s.mu across that scan would stall every writer for
	// the duration. Writes landing from here on are logged (rebuilding is
	// set) and replayed onto the new index before the swap.
	pts := materialize(ss)

	var idx *Index
	var occ *occupancy
	if len(pts) > 0 {
		var err error
		idx, err = buildShardIndex(pts, recent, s.shardIndexOptions(epoch, i, gen+1))
		if err == nil {
			s.attachStoreObs(idx)
			occ = buildOccupancy(pts, idx.Bounds())
		}
		if err != nil {
			// Unreachable for non-empty pts on the RAM backend; under disk
			// storage a failed page-file creation lands here. Fail safe by
			// aborting the swap (and dropping any partial file).
			if s.opts.storageDir != "" {
				os.Remove(filepath.Join(s.opts.storageDir, shardPageFile(epoch, i, gen+1)))
			}
			s.mu.Lock()
			ctl.rebuilding = false
			ctl.log = nil
			s.mu.Unlock()
			return false
		}
	}

	s.mu.Lock()
	if idx != nil {
		// Drain the logged write backlog in batches OUTSIDE the mutex: on
		// a disk-backed shard every replayed op faults and rewrites a
		// page, and holding s.mu across that I/O would stall all writers
		// — the same reasoning as materialize above. Bounded rounds so a
		// sustained write stream cannot livelock the swap; the (small)
		// remainder is applied under the lock below.
		for round := 0; len(ctl.log) > 0 && round < 4; round++ {
			batch := ctl.log
			ctl.log = nil
			s.mu.Unlock()
			replayOps(idx, occ, batch)
			s.mu.Lock()
		}
	}
	defer s.mu.Unlock()
	ctl.rebuilding = false
	if ss.idx != nil {
		// Bank the retiring index's counters; readers still in flight on it
		// may flush a few more, which is an acceptable monitoring blur.
		s.retired = s.retired.Add(ss.idx.Stats().AtomicSnapshot())
	}
	var ns *shardSnap
	if idx != nil {
		replayOps(idx, occ, ctl.log)
		if idx.Len() > 0 {
			ns = &shardSnap{idx: idx, bounds: idx.Bounds(), occ: occ}
			ctl.gen = gen + 1
		} else {
			discardIndexStorage(idx)
			ns = &shardSnap{empty: true}
		}
	} else {
		// The shard was fully emptied before the rebuild; replay logged
		// writes into a fresh delta buffer.
		ns = &shardSnap{empty: true}
		for _, op := range ctl.log {
			if op.del {
				for j, q := range ns.extra {
					if q == op.p {
						ns.extra = append(ns.extra[:j], ns.extra[j+1:]...)
						break
					}
				}
			} else {
				ns.extra = append(ns.extra, op.p)
			}
		}
		if len(ns.extra) > 0 {
			ns.empty = false
			ns.bounds = geom.RectFromPoints(ns.extra)
			ns.extraBounds = ns.bounds
		}
	}
	ctl.log = nil
	if ns.idx != nil {
		// The recent window becomes the new drift baseline.
		ctl.advisor.Store(NewRebuildAdvisor(ns.idx.Bounds(), recent, s.opts.windowSize, s.opts.driftThreshold))
	} else {
		ctl.advisor.Store(nil)
	}
	if ss.idx != nil {
		s.retireIndexStore(ss.idx)
	}
	s.swapShard(s.snap.Load(), i, ns)
	ctl.rebuilds++
	s.rebuilds.Add(1)
	if s.obs != nil {
		s.obs.Rebuild.ObserveSince(rebuildStart)
	}
	return true
}

// replayOps applies logged writes onto a not-yet-published rebuild index,
// keeping its occupancy bitmap a superset of its contents.
func replayOps(idx *Index, occ *occupancy, ops []shardOp) {
	for _, op := range ops {
		if op.del {
			idx.Delete(op.p)
		} else {
			idx.Insert(op.p)
			occ.add(op.p)
		}
	}
}

// materialize flattens a shard snapshot into its live point set.
func materialize(ss *shardSnap) []Point {
	var pts []Point
	if ss.idx != nil {
		pts = ss.idx.Points()
		if ss.deadN > 0 {
			pts = filterDead(pts, 0, ss.dead)
		}
	}
	return append(pts, ss.extra...)
}

// ------------------------------------------------------------ inspection

// Len returns the number of indexed points.
func (s *Sharded) Len() int {
	n := 0
	for _, ss := range s.snap.Load().shards {
		n += ss.live()
	}
	return n
}

// Bounds returns the minimum bounding rectangle of all shards.
func (s *Sharded) Bounds() Rect {
	var out Rect
	first := true
	for _, ss := range s.snap.Load().shards {
		if ss.empty {
			continue
		}
		if first {
			out, first = ss.bounds, false
		} else {
			out = out.Union(ss.bounds)
		}
	}
	return out
}

// Bytes returns the approximate in-memory footprint across all shards.
func (s *Sharded) Bytes() int64 {
	var b int64
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			b += ss.idx.Bytes()
		}
		b += int64(len(ss.extra))*16 + int64(len(ss.dead))*24
	}
	return b
}

// NumShards returns the number of shards (some possibly empty) of the
// currently serving partition plan.
func (s *Sharded) NumShards() int { return s.snap.Load().plan.NumShards() }

// DropCaches empties the block cache of every disk-backed shard index (a
// no-op under RAM-resident storage), putting the serving set in the state a
// cold start would see. Safe concurrently with queries: in-flight borrowed
// views keep their pages alive and later reads simply refault.
func (s *Sharded) DropCaches() {
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			ss.idx.DropCaches()
		}
	}
}

// Rebuilds returns how many shard rebuilds (drift or compaction) have
// completed since construction.
func (s *Sharded) Rebuilds() int64 { return s.rebuilds.Load() }

// Repartitions returns how many plan migrations have completed since
// construction (restored instances continue their snapshot's count).
func (s *Sharded) Repartitions() int64 { return s.repartitions.Load() }

// PlanEpoch returns the serving plan's epoch: how many repartitions this
// index (across restarts, via snapshots) has migrated through.
func (s *Sharded) PlanEpoch() int { return s.snap.Load().epoch }

// Migrating reports whether a plan migration is currently in flight.
func (s *Sharded) Migrating() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repartInFlight
}

// Stats returns aggregated access counters. The scan counters (pages,
// points, bounding boxes, look-ahead jumps) are summed across live shards
// plus every index retired by compaction or rebuild, so they are
// monotonically non-decreasing; the operation counters reflect logical
// calls on the Sharded layer — a fan-out query counts once, however many
// shards served it.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	agg := s.retired
	s.mu.Unlock()
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			agg = agg.Add(ss.idx.Stats().AtomicSnapshot())
		}
	}
	agg.RangeQueries = s.rangeQs.Load()
	agg.PointQueries = s.pointQs.Load() + s.knnQs.Load()
	agg.Inserts = s.inserts.Load()
	agg.Deletes = s.deletes.Load()
	return agg
}

// ShardInfo describes one shard's current state.
type ShardInfo struct {
	// Points is the number of live points the shard serves.
	Points int
	// Backlog is the uncompacted write-buffer size (inserts + tombstones).
	Backlog int
	// Drift is the shard's current workload drift estimate in [0, 1].
	Drift float64
	// Rebuilds counts completed rebuilds of this shard.
	Rebuilds int
	// WorkloadAware reports whether the shard's index was built against an
	// anticipated workload.
	WorkloadAware bool
	// Load counts queries this shard has served under the current plan
	// (range/count fan-out targets and point lookups) — the signal the
	// repartition advisor judges cross-shard imbalance on.
	Load int64
	// PagesScanned and PointsScanned are the shard index's cumulative scan
	// counters — the work (and, disk-backed, the IO) each shard performed.
	// Comparing them across shards shows imbalance in work units: a shard
	// can serve few queries yet burn most of the pages.
	PagesScanned  int64
	PointsScanned int64
	// Bounds is the shard's minimum bounding rectangle (zero when empty).
	Bounds Rect
}

// Shards returns a point-in-time description of every shard of the
// currently serving plan.
func (s *Sharded) Shards() []ShardInfo {
	snap := s.snap.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardInfo, len(snap.shards))
	for i, ss := range snap.shards {
		ctl := snap.ctls[i]
		info := ShardInfo{Points: ss.live(), Backlog: ss.backlog(),
			Rebuilds: ctl.rebuilds, Load: ctl.load.Load()}
		if !ss.empty {
			info.Bounds = ss.bounds
		}
		if ss.idx != nil {
			info.WorkloadAware = ss.idx.WorkloadAware()
			st := ss.idx.Stats().AtomicSnapshot()
			info.PagesScanned = st.PagesScanned
			info.PointsScanned = st.PointsScanned
		}
		if a := ctl.advisor.Load(); a != nil {
			info.Drift = a.Drift()
		}
		out[i] = info
	}
	return out
}

// Describe returns a one-line human-readable summary.
func (s *Sharded) Describe() string {
	snap := s.snap.Load()
	nonEmpty := 0
	for _, ss := range snap.shards {
		if !ss.empty {
			nonEmpty++
		}
	}
	return fmt.Sprintf("Sharded WaZI: %d points across %d/%d shards (plan epoch %d), %d rebuilds, %d repartitions",
		s.Len(), nonEmpty, len(snap.shards), snap.epoch, s.rebuilds.Load(), s.repartitions.Load())
}
