package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/server"
	"github.com/wazi-index/wazi/internal/workload"
)

// Set-up shared by every workload. BENCHMARK.json repeats these figures in
// the workload descriptions; TestDeclarationsMatchBenchmarkJSON keeps the
// two in step.
const (
	region    = dataset.NewYork
	dataSize  = 200_000
	leafSize  = 256
	numShards = 8
	trainSize = 2_000
	// clients is the closed loop's size: each client waits for its reply.
	// One client leaves the second CPU of a two-CPU host to the control
	// loop's rebuilds and the garbage collector, which with two clients
	// queued behind them and spread the timings from run to run.
	clients  = 1
	knnK     = 10
	batchOps = 32
	// cachePages is the per-shard block cache of scan-disk-batch: about a
	// quarter of the mean shard's leaf pages. The 8 shards hold from about
	// 30 to 480 pages each, about 265 on average.
	cachePages = 64
	// The warm-up runs before the measured window so that caches fill and
	// the start-up repartitions and rebuilds of the control loop land
	// outside it. It lasts the workload's warm-up at least, and ends once no
	// repartition has started or ended, and on a read-only workload no
	// rebuild has run, for quietFor, but no later than maxWarmup.
	// Compaction rebuilds, the steady state of a write workload, do not
	// count.
	quietFor  = 3 * time.Second
	maxWarmup = 30 * time.Second
	// setups is how many times a run sets the serving stack up; setup_s is
	// their median.
	setups = 3
)

// Selectivities, as fractions of the unit square's area.
const (
	selServe = 0.0256e-2
	selScan  = 0.1e-2
)

// kind is an index operation kind.
type kind uint8

const (
	kRange kind = iota
	kKNN
	kPoint
	kInsert
	kCount
	kBatch // a /v1/batch request; never a single op's kind
	numKinds
)

var kindNames = [numKinds]string{"range", "knn", "point", "insert", "count", "batch"}

func (k kind) String() string { return kindNames[k] }

// op is one index operation. Range and count ops carry rect; kNN, point
// and insert ops carry pt.
type op struct {
	kind kind
	rect wazi.Rect
	pt   wazi.Point
}

// spec describes one workload: how its stream and training set are drawn
// and how its index is stored.
type spec struct {
	name  string
	batch int  // ops per HTTP request: 1, or batchOps for /v1/batch
	disk  bool // leaf pages in per-shard page files behind a block cache
	wal   bool // group-commit write-ahead log
	// writes is set when the stream inserts. Its compaction rebuilds never
	// settle, so the warm-up waits only for repartitions; on a read-only
	// workload it waits for the start-up rebuilds as well.
	writes bool
	// rate is a generous ceiling on ops per second, used to size the
	// pre-generated stream; a faster run wraps around it.
	rate int
	// warmup is the shortest warm-up. The disk workload needs longer: its
	// cache fills, and the control loop repartitions a few times at start.
	warmup time.Duration
	train  func(seed int64) []wazi.Rect
	gen    func(data []wazi.Point, n int, seed int64) []op
}

var specs = []spec{
	{
		name: "serve-read-zipf", batch: 1, rate: 5_000, warmup: 5 * time.Second,
		train: func(seed int64) []wazi.Rect { return workload.Zipfian(region, trainSize, selServe, seed) },
		gen: func(data []wazi.Point, n int, seed int64) []op {
			qs := workload.Zipfian(region, n, selServe, seed)
			pts := workload.PointQueries(data, n, seed+1)
			rng := rand.New(rand.NewSource(seed + 2))
			ops := make([]op, n)
			for i := range ops {
				switch u := rng.Float64(); {
				case u < 0.70:
					ops[i] = op{kind: kRange, rect: qs[i]}
				case u < 0.85:
					ops[i] = op{kind: kKNN, pt: qs[i].Center()}
				default:
					ops[i] = op{kind: kPoint, pt: pts[i]}
				}
			}
			return ops
		},
	},
	{
		name: "ingest-wal", batch: 1, wal: true, writes: true, rate: 6_000, warmup: 5 * time.Second,
		train: func(seed int64) []wazi.Rect { return workload.Skewed(region, trainSize, selServe, seed) },
		gen: func(_ []wazi.Point, n int, seed int64) []op {
			qs := workload.Skewed(region, n, selServe, seed)
			ins := workload.InsertBatch(n, seed+1)
			rng := rand.New(rand.NewSource(seed + 2))
			ops := make([]op, n)
			for i := range ops {
				if rng.Float64() < 0.5 {
					ops[i] = op{kind: kInsert, pt: ins[i]}
				} else {
					ops[i] = op{kind: kRange, rect: qs[i]}
				}
			}
			return ops
		},
	},
	{
		name: "scan-disk-batch", batch: batchOps, disk: true, rate: 100_000, warmup: 12 * time.Second,
		train: func(seed int64) []wazi.Rect { return workload.Uniform(trainSize, selScan, seed) },
		gen: func(_ []wazi.Point, n int, seed int64) []op {
			qs := workload.Uniform(n, selScan, seed)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{kind: kCount, rect: qs[i]}
			}
			return ops
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// maxStream caps the pre-generated stream; requests past it wrap around.
const maxStream = 1 << 20

// inputs are everything a run derives from its seed. The data, the
// training set and the replayed stream use three different seeds.
type inputs struct {
	data  []wazi.Point
	train []wazi.Rect
	ops   []op // the replayed stream; request r carries ops[r*batch : (r+1)*batch]
}

func makeInputs(s spec, seed int64, measured time.Duration) inputs {
	n := int(float64(s.rate) * (maxWarmup + measured).Seconds())
	n = min(max(n, s.batch), maxStream)
	n -= n % s.batch
	data := dataset.Generate(region, dataSize, seed)
	return inputs{
		data:  data,
		train: s.train(seed + 1_000_003),
		ops:   s.gen(data, n, seed+2_000_003),
	}
}

// requestOps returns the ops of request r (wrapping around the stream).
func (in *inputs) requestOps(s spec, r int64) []op {
	n := int64(len(in.ops) / s.batch)
	i := int(r%n) * s.batch
	return in.ops[i : i+s.batch]
}

// shardedOptions returns the NewSharded options of workload s with its
// files under dir. Everything else is left at the defaults waziserve runs
// with, the background control loop included.
func shardedOptions(s spec, dir string) []wazi.ShardedOption {
	opts := []wazi.ShardedOption{
		wazi.WithShards(numShards),
		wazi.WithIndexOptions(wazi.WithLeafSize(leafSize)),
	}
	if s.disk {
		opts = append(opts, wazi.WithShardedStorage(filepath.Join(dir, "pages"), cachePages))
	}
	if s.wal {
		opts = append(opts, wazi.WithWAL(filepath.Join(dir, "wal")), wazi.WithWALSync("group"))
	}
	return opts
}

// stack is one serving stack: a Sharded index behind server.Server on a
// loopback listener.
type stack struct {
	idx    *wazi.Sharded
	srv    *server.Server
	base   string // http://host:port
	dir    string
	cancel context.CancelFunc
	done   chan error
}

// startStack builds the index and the server and returns once /healthz
// answers. The returned duration is the set-up time: from NewSharded until
// the first healthy answer.
func startStack(s spec, in *inputs, dir string) (*stack, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	idx, err := wazi.NewSharded(in.data, in.train, shardedOptions(s, dir)...)
	if err != nil {
		return nil, 0, fmt.Errorf("building index: %w", err)
	}
	srv := server.New(server.Sharded(idx), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		idx.Close()
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{idx: idx, srv: srv, base: "http://" + ln.Addr().String(), dir: dir,
		cancel: cancel, done: make(chan error, 1)}
	go func() { st.done <- srv.Serve(ctx, ln) }()
	if err := waitHealthy(st.base); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(base string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = errors.New(resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down, waits for it, and closes the index.
func (st *stack) stop() error {
	st.cancel()
	err := <-st.done
	st.idx.Close()
	return err
}

// diskBytes sums the sizes of the files under dir that the index serves
// from: the WAL segments and, per shard, the page file of the newest
// generation of the newest plan epoch. Older generations are retired files
// that the next start sweeps; how many of them linger depends only on how
// many rebuilds the control loop happened to run.
func diskBytes(dir string) int64 {
	type file struct {
		gen  int
		size int64
	}
	epoch, live := -1, map[int]file{}
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		var e, i, g int
		if _, err := fmt.Sscanf(d.Name(), "shard-e%d-%d-g%d.pages", &e, &i, &g); err != nil {
			n += fi.Size()
			return nil
		}
		if e > epoch {
			epoch, live = e, map[int]file{}
		}
		if e == epoch && g >= live[i].gen {
			live[i] = file{g, fi.Size()}
		}
		return nil
	})
	for _, f := range live {
		n += f.size
	}
	return n
}
