package workload

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
)

// ---------- Experiment 9: single-node multi-core scaling ----------
//
// Every earlier experiment scales the system out (more nodes, batching,
// fan-out); Experiment 9 scales one node up. It pits the pre-striping store
// (WithShards(1): one mutex, one LRU mutated even by reads) against the
// lock-striped store at increasing client concurrency, on both the
// in-process ("local") and the real-TCP ("remote") paths, and records
// throughput, tail latency, and allocations per operation. On a multi-core
// runner the single mutex flatlines where the paper's throughput curves
// should keep climbing; the striped store keeps scaling — memcached's lock
// striping reproduced as an artifact, not a claim.

// Exp9ValueBytes / Exp9Keys size the dataset: a few thousand small values,
// comfortably in-memory, so the measurement isolates locking and allocation
// rather than eviction.
const (
	Exp9ValueBytes = 128
	Exp9Keys       = 4096
)

// Exp9WritePct is the write share of the op mix. 10% writes keeps the
// global-LRU read bump the dominant contention source, matching the
// read-mostly shape of the paper's workload.
const Exp9WritePct = 10

// exp9SampleEvery thins per-op latency sampling so the timer itself does
// not dominate a ~200ns operation.
const exp9SampleEvery = 16

// Exp9Clients returns the client-concurrency sweep.
func Exp9Clients(quick bool) []int {
	if quick {
		return []int{1, 16, 64}
	}
	return []int{1, 4, 16, 64}
}

// Exp9Point is one (transport, shards, clients) measurement.
type Exp9Point struct {
	Transport   string  `json:"transport"` // "local" (in-process store) or "remote" (TCP + pool)
	Shards      int     `json:"shards"`
	Clients     int     `json:"clients"`
	Ops         int64   `json:"-"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Exp9Speedup is one sharded-vs-baseline throughput ratio.
type Exp9Speedup struct {
	Transport string  `json:"transport"`
	Clients   int     `json:"clients"`
	Speedup   float64 `json:"sharded_over_1shard"`
}

// Exp9Result is the full Experiment 9 report, and the BENCH_exp9.json
// document.
type Exp9Result struct {
	Experiment string `json:"experiment"`
	// GOMAXPROCS and NumCPU qualify the curve: scaling with cores can only
	// show on a runner that has them, so the artifact records what it ran on.
	GOMAXPROCS    int `json:"gomaxprocs"`
	NumCPU        int `json:"num_cpu"`
	ShardedShards int `json:"sharded_shards"` // stripe count the "sharded" configuration used
	// The op mix every point ran (Exp9WritePct, Exp9ValueBytes, Exp9Keys).
	WritePct   int           `json:"write_pct"`
	ValueBytes int           `json:"value_bytes"`
	Keys       int           `json:"keys"`
	Points     []Exp9Point   `json:"points"`
	Speedups   []Exp9Speedup `json:"speedups"`
}

// Speedup returns sharded/1-shard throughput for a transport and client
// count (0 when either point is missing).
func (r Exp9Result) Speedup(transport string, clients int) float64 {
	var base, sharded float64
	for _, p := range r.Points {
		if p.Transport != transport || p.Clients != clients {
			continue
		}
		if p.Shards == 1 {
			base = p.OpsPerSec
		} else {
			sharded = p.OpsPerSec
		}
	}
	if base <= 0 {
		return 0
	}
	return sharded / base
}

// computeSpeedups fills Speedups with one ratio per (transport, clients)
// pair that has both a baseline and a sharded point, in point order.
func (r *Exp9Result) computeSpeedups() {
	seen := map[Exp9Speedup]bool{}
	for _, p := range r.Points {
		key := Exp9Speedup{Transport: p.Transport, Clients: p.Clients}
		if seen[key] {
			continue
		}
		seen[key] = true
		if key.Speedup = r.Speedup(p.Transport, p.Clients); key.Speedup > 0 {
			r.Speedups = append(r.Speedups, key)
		}
	}
}

// exp9Ops sizes the per-point op count: enough for a stable rate, bounded
// so the full sweep stays in benchmark-smoke territory.
func exp9Ops(quick, remote bool) int64 {
	if remote {
		// Remote ops cost a real TCP round trip (~10µs on loopback); the
		// count drops so each point still finishes in about a second.
		if quick {
			return 40_000
		}
		return 120_000
	}
	if quick {
		return 400_000
	}
	return 1_200_000
}

// exp9Run drives one measurement point: clients goroutines issue a 90/10
// get/set mix over a shared keyspace against cache, with deterministic
// per-client LCG key choice, thinned latency sampling, and allocation
// accounting across the run.
func exp9Run(cache kvcache.Cache, clients int, totalOps int64) Exp9Point {
	keys := make([]string, Exp9Keys)
	val := make([]byte, Exp9ValueBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("exp9-key-%04d", i)
		cache.Set(keys[i], val, 0)
	}
	perClient := totalOps / int64(clients)
	if perClient < 1 {
		perClient = 1
	}
	ops := perClient * int64(clients)
	// One histogram per client, allocated before the MemStats baseline so the
	// fixed bucket arrays never show up in AllocsPerOp; Observe itself is
	// allocation-free. Exact-bucket Merge afterwards yields the aggregate
	// distribution the sorted-sample concatenation used to.
	hists := make([]*obs.Histogram, clients)
	for i := range hists {
		hists[i] = obs.NewHistogram()
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Deterministic per-client LCG: no shared rand, no per-op alloc.
			r := uint32(id+1)*2654435761 + 12345
			h := hists[id]
			for i := int64(0); i < perClient; i++ {
				r = r*1664525 + 1013904223
				k := keys[r%Exp9Keys]
				timed := i%exp9SampleEvery == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				if r%100 < Exp9WritePct {
					cache.Set(k, val, 0)
				} else {
					cache.Get(k)
				}
				if timed {
					h.ObserveSince(t0)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	merged := obs.NewHistogram()
	for _, h := range hists {
		merged.Merge(h)
	}
	pt := Exp9Point{
		Clients:     clients,
		Ops:         ops,
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}
	if s := merged.Snapshot(); s.Count > 0 {
		pt.P50Us = us(time.Duration(s.Quantile(0.50)))
		pt.P99Us = us(time.Duration(s.Quantile(0.99)))
	}
	return pt
}

// Exp9 runs the core-scaling sweep: {1-shard baseline, striped} x client
// concurrency x {local, remote} transports.
func Exp9(opt ExpOptions) (Exp9Result, error) {
	res := Exp9Result{
		Experiment:    "exp9-core-scaling",
		WritePct:      Exp9WritePct,
		ValueBytes:    Exp9ValueBytes,
		Keys:          Exp9Keys,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		ShardedShards: kvcache.DefaultShards(),
	}
	shardCfgs := []int{1, res.ShardedShards}
	for _, transport := range []string{"local", "remote"} {
		for _, shards := range shardCfgs {
			for _, clients := range Exp9Clients(opt.Quick) {
				store := kvcache.New(0, kvcache.WithShards(shards))
				var cache kvcache.Cache = store
				var cleanup func()
				if transport == "remote" {
					srv := cacheproto.NewServer(store)
					addr, err := srv.Listen("127.0.0.1:0")
					if err != nil {
						return res, fmt.Errorf("workload: exp9 cache node: %w", err)
					}
					pool := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{
						Addr:      addr,
						MaxIdle:   clients,
						MaxConns:  2 * clients,
						OpTimeout: 5 * time.Second,
					})
					cache = pool
					cleanup = func() { _ = pool.Close(); _ = srv.Close() }
				}
				pt := exp9Run(cache, clients, exp9Ops(opt.Quick, transport == "remote"))
				pt.Transport = transport
				pt.Shards = shards
				if cleanup != nil {
					cleanup()
				}
				res.Points = append(res.Points, pt)
				opt.logf("exp9  %-6s shards=%-3d clients=%-3d %12.0f ops/s  p50=%-8.3fµs p99=%-8.3fµs %.1f ns/op  %.3f allocs/op",
					pt.Transport, pt.Shards, pt.Clients, pt.OpsPerSec,
					pt.P50Us, pt.P99Us, pt.NsPerOp, pt.AllocsPerOp)
			}
		}
	}
	res.computeSpeedups()
	for _, transport := range []string{"local", "remote"} {
		maxC := Exp9Clients(opt.Quick)
		c := maxC[len(maxC)-1]
		opt.logf("exp9  %-6s sharded/1-shard speedup at %d clients: %.2fx (gomaxprocs=%d)",
			transport, c, res.Speedup(transport, c), res.GOMAXPROCS)
	}
	return res, nil
}
