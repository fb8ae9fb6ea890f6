package workload

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/loadctl"
	"cachegenie/internal/obs"
)

// Experiment 11: coordinated distributed load generation. The ROADMAP's
// saturation problem — one 1-core genieload box cannot outrun the tier, so
// exp9's committed artifact flatlines at ~1x — is answered by pointing N
// worker processes at one tier in lockstep (internal/loadctl) and merging
// their per-worker latency snapshots exact-bucket into true aggregate
// quantiles. This file holds both halves: TierLoad, the loadctl.Runner a
// genieload worker process runs, and Exp11, an in-process harness that
// spawns coordinator + workers over loopback so the whole instrument runs
// under `go test`.

// Experiment 11 tier/workload defaults (the CI distributed-smoke job and
// the in-process harness share them).
const (
	Exp11Nodes      = 2
	Exp11Keys       = 4096
	Exp11ValueBytes = 128
	Exp11WritePct   = 10
)

// exp11OpTimeout bounds every cache round trip and preflight dial a worker
// makes: a wedged node must surface as a counted error, not a hung run.
const exp11OpTimeout = 5 * time.Second

// PreflightCacheAddrs dials every cache node once and reports every
// unreachable one by address. genieload calls it before entering warmup
// (both standalone and inside TierLoad.Prepare) so a bad -cache-addrs list
// fails loudly up front instead of surfacing as a silent zero-hit run.
func PreflightCacheAddrs(addrs []string, timeout time.Duration) error {
	if len(addrs) == 0 {
		return errors.New("workload: no cache addresses given")
	}
	if timeout <= 0 {
		timeout = exp11OpTimeout
	}
	var errs []error
	for _, addr := range addrs {
		c, err := cacheproto.DialTimeout(addr, timeout)
		if err != nil {
			errs = append(errs, fmt.Errorf("cache node %s unreachable: %w", addr, err))
			continue
		}
		_ = c.Close()
	}
	return errors.Join(errs...)
}

// TierLoad is the loadctl.Runner a genieload worker runs: it drives an
// externally launched cache tier (geniecache -nodes N) with a mixed
// get/set workload. Writes stay inside the worker's owned key slice;
// reads roam the whole keyspace, which is exactly why the warmup barrier
// exists — every key has been seeded by its owner before anyone measures.
type TierLoad struct {
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Reg, when non-nil, has the worker's pools register their metrics.
	Reg *obs.Registry
	// AddrOverride, when non-empty, replaces the spec's cache addresses —
	// for workers that reach the same tier via different addresses (NAT,
	// split-horizon DNS). Must list the nodes in the same order as the
	// spec so every worker's ring agrees on key placement.
	AddrOverride []string

	mu     sync.Mutex
	pools  []*cacheproto.Pool
	cache  kvcache.Cache
	keys   []string
	value  []byte
	closed bool
}

func (t *TierLoad) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// Prepare dials the tier (failing fast with per-node errors — the
// coordinator aborts the whole run on any worker's ERR prepare) and builds
// the pooled clients plus the replica-aware ring to route through.
func (t *TierLoad) Prepare(spec loadctl.Spec) error {
	dialAddrs := spec.CacheAddrs
	if len(t.AddrOverride) > 0 {
		if len(t.AddrOverride) != len(spec.CacheAddrs) {
			return fmt.Errorf("workload: -cache-addrs override lists %d nodes, spec has %d",
				len(t.AddrOverride), len(spec.CacheAddrs))
		}
		dialAddrs = t.AddrOverride
	}
	if err := PreflightCacheAddrs(dialAddrs, exp11OpTimeout); err != nil {
		return err
	}
	if spec.Clients <= 0 || spec.Keys <= 0 {
		return fmt.Errorf("workload: bad spec: clients=%d keys=%d", spec.Clients, spec.Keys)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]kvcache.Cache, 0, len(dialAddrs))
	for i, addr := range dialAddrs {
		pool := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{
			Addr:      addr,
			MaxIdle:   spec.Clients,
			MaxConns:  2 * spec.Clients,
			OpTimeout: exp11OpTimeout,
		})
		if t.Reg != nil {
			pool.RegisterMetrics(t.Reg, fmt.Sprintf(`node="%d"`, i))
		}
		t.pools = append(t.pools, pool)
		nodes = append(nodes, pool)
	}
	if len(nodes) == 1 {
		t.cache = nodes[0]
	} else {
		// Ring IDs come from the spec, not the dialed addresses, so every
		// worker agrees on key placement even when one reaches the tier
		// through overridden addresses.
		ring, err := cluster.NewManager(spec.CacheAddrs, nodes, cluster.WithReplicas(spec.Replicas))
		if err != nil {
			return err
		}
		t.cache = ring
	}
	// One flusher is enough; every Prepare completes before the warmup
	// barrier releases, so no seeded key can be lost to this.
	if spec.WorkerIndex == 0 {
		t.cache.FlushAll()
	}
	t.keys = make([]string, spec.Keys)
	for i := range t.keys {
		t.keys[i] = fmt.Sprintf("exp11:k%06d", i)
	}
	t.value = bytes.Repeat([]byte{'v'}, spec.ValueBytes)
	return nil
}

// Warmup seeds the worker's owned key slice, then runs unmeasured mixed
// load for the rest of the warmup window to fill connection pools.
func (t *TierLoad) Warmup(spec loadctl.Spec) error {
	lo, hi := spec.KeyRange()
	deadline := time.Now().Add(spec.WarmupDuration())
	for i := lo; i < hi; i++ {
		t.cache.Set(t.keys[i], t.value, 0)
	}
	t.logf("exp11: worker %d seeded keys [%d,%d)", spec.WorkerIndex, lo, hi)
	if time.Until(deadline) > 0 {
		t.drive(spec, time.Until(deadline))
	}
	return nil
}

// Measure runs the measured window and returns this worker's counters and
// latency snapshot. Errors are operations the pools short-circuited or
// failed (breaker fail-fasts, dial failures, discarded connections).
func (t *TierLoad) Measure(spec loadctl.Spec) (loadctl.Result, error) {
	before := t.poolErrors()
	start := time.Now()
	res := t.drive(spec, spec.MeasureDuration())
	res.ElapsedNs = time.Since(start).Nanoseconds()
	res.Errors = t.poolErrors() - before
	if res.Ops == 0 {
		return res, errors.New("workload: measured zero operations")
	}
	return res, nil
}

// poolErrors sums the pools' failure counters (fail-fast short circuits,
// dial failures, connections discarded after an op error).
func (t *TierLoad) poolErrors() int64 {
	var n int64
	for _, p := range t.pools {
		s := p.Stats()
		n += s.FailFast + s.DialFails + s.Discards
	}
	return n
}

// drive runs spec.Clients goroutines of mixed load for d and merges their
// per-client latency histograms (contention-free while hot, exact-bucket
// merged after, same idiom as exp9's load loop).
func (t *TierLoad) drive(spec loadctl.Spec, d time.Duration) loadctl.Result {
	lo, hi := spec.KeyRange()
	deadline := time.Now().Add(d)
	hists := make([]*obs.Histogram, spec.Clients)
	type counters struct{ ops, hits, misses int64 }
	per := make([]counters, spec.Clients)
	var wg sync.WaitGroup
	for cl := 0; cl < spec.Clients; cl++ {
		hists[cl] = &obs.Histogram{}
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			h := hists[cl]
			c := &per[cl]
			// Deterministic per-client LCG, distinct across workers.
			r := uint32(spec.Seed) + uint32(spec.WorkerIndex*1024+cl+1)*2654435761 + 12345
			for time.Now().Before(deadline) {
				r = r*1664525 + 1013904223
				write := int(r%100) < spec.WritePct
				r = r*1664525 + 1013904223
				var key string
				if write && hi > lo {
					key = t.keys[lo+int(r)%(hi-lo)]
				} else {
					key = t.keys[int(r)%len(t.keys)]
				}
				t0 := time.Now()
				if write && hi > lo {
					t.cache.Set(key, t.value, 0)
				} else if _, ok := t.cache.Get(key); ok {
					c.hits++
				} else {
					c.misses++
				}
				h.Observe(time.Since(t0).Nanoseconds())
				c.ops++
			}
		}(cl)
	}
	wg.Wait()
	merged := &obs.Histogram{}
	var res loadctl.Result
	for cl := 0; cl < spec.Clients; cl++ {
		merged.Merge(hists[cl])
		res.Ops += per[cl].ops
		res.Hits += per[cl].hits
		res.Misses += per[cl].misses
	}
	res.Hist = merged.Snapshot()
	return res
}

// Close releases the pools. Idempotent — the worker loop calls it on every
// exit path.
func (t *TierLoad) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, p := range t.pools {
		_ = p.Close()
	}
}

// Exp11Point is one coordinated run at a given worker count.
type Exp11Point struct {
	Workers             int       `json:"worker_count"`
	ClientsPerWorker    int       `json:"clients_per_worker"`
	Ops                 int64     `json:"ops"`
	Errors              int64     `json:"errors"`
	ElapsedMs           float64   `json:"elapsed_ms"`
	AggOpsPerSec        float64   `json:"agg_ops_per_sec"`
	BestWorkerOpsPerSec float64   `json:"best_worker_ops_per_sec"`
	BestWorkerID        string    `json:"best_worker_id"`
	PerWorkerOpsPerSec  []float64 `json:"per_worker_ops_per_sec"`
	HitRate             float64   `json:"hit_rate"`
	P50us               float64   `json:"p50_us"`
	P99us               float64   `json:"p99_us"`
	P999us              float64   `json:"p999_us"`
}

// exp11PointFromMerged flattens a coordinator's merged run into the
// artifact row. Both the in-process harness and genieload's coordinator
// mode go through this, so BENCH_exp11.json has one shape everywhere.
func exp11PointFromMerged(m *loadctl.Merged) Exp11Point {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	p := Exp11Point{
		Workers:             m.Spec.Workers,
		ClientsPerWorker:    m.Spec.Clients,
		Ops:                 m.Ops,
		Errors:              m.Errors,
		ElapsedMs:           float64(m.Elapsed.Nanoseconds()) / 1e6,
		AggOpsPerSec:        m.AggOpsPerSec,
		BestWorkerOpsPerSec: m.BestWorkerOpsPerSec,
		BestWorkerID:        m.BestWorkerID,
		HitRate:             m.HitRate(),
		P50us:               us(m.Hist.Quantile(0.5)),
		P99us:               us(m.Hist.Quantile(0.99)),
		P999us:              us(m.Hist.Quantile(0.999)),
	}
	for _, r := range m.Results {
		p.PerWorkerOpsPerSec = append(p.PerWorkerOpsPerSec, r.OpsPerSec())
	}
	return p
}

// exp11RegisterMerged loads a merged run into a metrics registry: the
// aggregate latency distribution plus run counters, labelled by worker
// count, so the coordinator's .prom dump carries the same quantiles as
// the JSON artifact.
func exp11RegisterMerged(reg *obs.Registry, m *loadctl.Merged) {
	labels := fmt.Sprintf(`workers="%d"`, m.Spec.Workers)
	h := reg.Histogram("cachegenie_coordinated_op_latency_seconds", labels,
		"Merged per-op latency across all workers of one coordinated run.", obs.UnitNanoseconds)
	h.AddSnapshot(m.Hist)
	reg.Counter("cachegenie_coordinated_ops_total", labels,
		"Operations summed across workers.").Add(m.Ops)
	reg.Counter("cachegenie_coordinated_errors_total", labels,
		"Worker-side cache errors summed across workers.").Add(m.Errors)
	reg.Gauge("cachegenie_coordinated_workers", labels,
		"Worker processes contributing to the merged run.").Set(int64(m.Spec.Workers))
}

// Exp11Result is the saturation sweep, and the BENCH_exp11.json document
// consumed by CI's distributed-smoke assertions (jq checks worker_count and
// that agg_ops_per_sec exceeds best_worker_ops_per_sec).
type Exp11Result struct {
	Experiment  string       `json:"experiment"`
	Description string       `json:"description"`
	Nodes       int          `json:"nodes"`
	Replicas    int          `json:"replicas"`
	Points      []Exp11Point `json:"points"`
	// Metrics is the coordinator registry's Prometheus dump (written
	// alongside the JSON artifact, not embedded in it).
	Metrics []byte `json:"-"`
}

func newExp11Result(nodes, replicas int) Exp11Result {
	return Exp11Result{
		Experiment: "exp11",
		Description: "Coordinated distributed load: N genieload workers drive one cache tier in " +
			"lockstep; per-worker latency histograms are merged exact-bucket into aggregate quantiles.",
		Nodes:    nodes,
		Replicas: replicas,
	}
}

// Exp11FromMerged is the artifact of one coordinated run across real
// processes (genieload -coordinator) against a tier of nodes at the given
// replication factor: its single point plus the metrics dump.
func Exp11FromMerged(m *loadctl.Merged, nodes, replicas int) (Exp11Result, error) {
	res := newExp11Result(nodes, replicas)
	res.Points = []Exp11Point{exp11PointFromMerged(m)}
	reg := obs.NewRegistry()
	exp11RegisterMerged(reg, m)
	var buf bytes.Buffer
	err := reg.WritePrometheus(&buf)
	res.Metrics = buf.Bytes()
	return res, err
}

// Exp11WorkerCounts is the sweep's worker axis.
func Exp11WorkerCounts(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

// exp11Spec is the workload every point of the sweep runs.
func exp11Spec(opt ExpOptions, clients int) loadctl.Spec {
	warmup, measure := int64(400), int64(1500)
	if opt.Quick {
		warmup, measure = 120, 350
	}
	return loadctl.Spec{
		Experiment: "exp11",
		Clients:    clients,
		WarmupMs:   warmup,
		MeasureMs:  measure,
		Keys:       Exp11Keys,
		ValueBytes: Exp11ValueBytes,
		WritePct:   Exp11WritePct,
		Seed:       42,
		Replicas:   2,
	}
}

// exp11Tier launches a loopback geniecache-shaped tier: real cacheproto
// servers over TCP, one per node. Returns the addresses and a teardown.
func exp11Tier(nodes int) ([]string, func(), error) {
	addrs := make([]string, 0, nodes)
	servers := make([]*cacheproto.Server, 0, nodes)
	teardown := func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}
	for i := 0; i < nodes; i++ {
		srv := cacheproto.NewServer(kvcache.New(0))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			teardown()
			return nil, nil, fmt.Errorf("workload: exp11 cache node %d: %w", i, err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}
	return addrs, teardown, nil
}

// Exp11 runs the coordinated saturation sweep fully in-process: per worker
// count W it launches a fresh loopback tier, a coordinator, and W worker
// goroutines (each a real loadctl.RunWorker over TCP), then merges. The
// same code paths a multi-machine run exercises — protocol, barriers,
// histogram wire encoding — just with loopback for the network.
func Exp11(opt ExpOptions) (Exp11Result, error) {
	clients := 4
	if opt.Quick {
		clients = 2
	}
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	res := newExp11Result(Exp11Nodes, 2)
	for _, w := range Exp11WorkerCounts(opt.Quick) {
		m, err := exp11RunOnce(opt, w, clients)
		if err != nil {
			return res, fmt.Errorf("workload: exp11 workers=%d: %w", w, err)
		}
		exp11RegisterMerged(reg, m)
		p := exp11PointFromMerged(m)
		res.Points = append(res.Points, p)
		opt.logf("exp11 workers=%d clients=%d  %9.0f ops/s agg (best single %.0f)  p50=%.0fµs p99=%.0fµs hit=%.3f",
			w, clients, p.AggOpsPerSec, p.BestWorkerOpsPerSec, p.P50us, p.P99us, p.HitRate)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return res, err
	}
	res.Metrics = buf.Bytes()
	return res, nil
}

// exp11RunOnce is one point: tier + coordinator + W in-process workers.
func exp11RunOnce(opt ExpOptions, workers, clients int) (*loadctl.Merged, error) {
	addrs, teardown, err := exp11Tier(Exp11Nodes)
	if err != nil {
		return nil, err
	}
	defer teardown()

	coord := loadctl.NewCoordinator(loadctl.CoordinatorConfig{
		JoinTimeout:    30 * time.Second,
		BarrierTimeout: 30 * time.Second,
	})
	caddr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	spec := exp11Spec(opt, clients)
	spec.CacheAddrs = addrs

	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = loadctl.RunWorker(caddr,
				loadctl.WorkerConfig{ID: fmt.Sprintf("w%d", i)}, &TierLoad{})
		}(i)
	}
	m, err := coord.Run(spec, workers)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(workerErrs...); err != nil {
		return nil, err
	}
	return m, nil
}
