// Command genieload regenerates the paper's evaluation (§5): every figure
// and table is one -experiment target, an entry of the workload.Experiments
// registry. Results print as aligned text series; exp7 onward also write a
// BENCH_<name>.json artifact to the working directory.
//
// Usage:
//
//	genieload -experiment all            # everything, in registry order (minutes)
//	genieload -experiment exp1           # Fig 2a/2b client sweep
//	genieload -experiment table2         # Table 2 per-page latency
//	genieload -experiment exp2           # Fig 3a read/write mix
//	genieload -experiment exp3           # Fig 3b zipf skew
//	genieload -experiment exp4           # Fig 3c cache size
//	genieload -experiment exp4b          # colocated-cache variant
//	genieload -experiment exp5           # trigger overhead under load
//	genieload -experiment exp6           # sync vs async invalidation bus
//	genieload -experiment exp7           # remote cache tier over real TCP
//	genieload -experiment exp8           # node failure: breaker + live ring membership
//	genieload -experiment exp9           # single-node multi-core scaling (sharded store)
//	genieload -experiment exp10          # R-way replication: failover routing + key handoff
//	genieload -experiment exp11          # coordinated distributed load (in-process sweep)
//	genieload -experiment exp12          # crash drill: WAL recovery + epoch cache flush
//	genieload -experiment exp13          # hot keys: zipf skew + flash crowd, single-flight off vs on
//	genieload -experiment micro          # §5.3 microbenchmarks
//	genieload -experiment effort         # §5.2 programmer effort
//	genieload -experiment ablation       # template-invalidation baseline
//
// Coordinated distributed load generation (Experiment 11 across real
// machines): one coordinator process and N workers drive an externally
// launched tier (geniecache -nodes N -replicas R) in lockstep —
//
//	genieload -coordinator :9009 -workers 2 -cache-addrs host1:9001,host2:9001
//	genieload -worker -join coordhost:9009        # on each load box, x2
//
// Workers register over a line-based TCP control protocol
// (internal/loadctl), receive the workload spec (clients, durations,
// keyspace slice, seed), run warmup/measure/drain in barrier lockstep, and
// ship their latency histograms back; the coordinator merges them
// exact-bucket into true aggregate p50/p99/p999 and writes BENCH_exp11.json
// plus BENCH_exp11_metrics.prom. Any worker failure — unreachable cache
// node, death mid-run, hung barrier — aborts the whole run and every
// process exits non-zero.
//
// The -async flag routes trigger cache maintenance through the batching
// invalidation bus (internal/invbus) in every experiment, and -batch-window
// tunes its coalescing window; exp6 sweeps sync vs async itself.
//
// The -transport flag selects how every stack reaches its cache: inprocess
// (default; the injected-latency simulation) or remote (real cacheproto
// servers on loopback TCP behind pooled clients). exp7 sweeps both itself
// and writes its series to BENCH_exp7.json. With -transport remote,
// -cache-addrs points at externally launched geniecache nodes
// (cmd/geniecache -nodes N prints a ready-made list) instead of
// self-launched loopback ones.
//
// exp8 is the failure drill: it launches its own loopback tier, kills one
// node mid-run (matching geniecache's -kill-node/-kill-after flags for
// external tiers), measures the circuit breaker's fail-fast behaviour
// against the pre-resilience dial storm, drops the dead node from the ring,
// revives and rejoins it, and writes the timeline to BENCH_exp8.json.
//
// exp9 is the single-node scaling sweep: the 1-shard (single-mutex) store
// against the lock-striped one at rising client concurrency, in-process and
// over real TCP, written to BENCH_exp9.json. The -shards flag overrides the
// stripe count for every OTHER experiment's cache nodes (0 = auto).
//
// exp10 is the replication drill: the exp8 kill/revive timeline at R=1 vs
// R=2 — with a second replica, breaker-aware failover reads carry the dead
// node's key share and the hit rate rides through the kill — plus an
// invalidation-staleness scan proving triggers reached every replica,
// written to BENCH_exp10.json. The -replicas flag sets the ring's
// replication factor for every OTHER experiment's cache tier (0/1 =
// single-owner routing; exp10 sweeps R itself).
//
// exp13 is the hot-key drill: a zipf s=1.1 user popularity plus a flash
// crowd stampeding one page, run with single-flight miss coalescing off and
// on, written to BENCH_exp13.json. The -zipf-s and -flash-crowd flags apply
// the same skew knobs to every OTHER experiment's workload (0 = each
// experiment's own default).
//
// Observability: -metrics-addr serves Prometheus /metrics, a /metrics.json
// snapshot, a breaker-aware /healthz, and /debug/pprof while experiments
// run — every stack an experiment builds registers its stores, servers,
// pools, ring, and Genie into the one registry. -tick prints a live
// per-interval cache-tier line (ops/s, p50/p99 from differenced mergeable
// histograms, hit rate, breaker states, plus misses coalesced by
// single-flight) without touching the experiment's own measurements.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/loadctl"
	"cachegenie/internal/obs"
	"cachegenie/internal/workload"
)

// startTicker prints a live cache-tier line every interval from the metrics
// registry the experiments register their stacks into: per-interval pool ops/s
// and p50/p99 (histogram snapshots differenced with Sub, merged across nodes
// with Add), per-interval Genie hit rate, and one breaker-state letter per
// pool (C closed, O open, H half-open). Returns a stop func that joins the
// goroutine.
func startTicker(reg *obs.Registry, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		var prevOps obs.HistSnapshot
		var prevHits, prevMisses int64
		var prevShared int64
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				elapsed := now.Sub(last)
				last = now
				var cur obs.HistSnapshot
				reg.VisitHistograms(func(name, _ string, h *obs.Histogram) {
					if name == cacheproto.PoolOpLatencyName {
						cur.Add(h.Snapshot())
					}
				})
				iv := cur.Sub(prevOps)
				prevOps = cur
				snap := reg.Snapshot()
				hits := snap.SumCounters("cachegenie_genie_hits_total")
				misses := snap.SumCounters("cachegenie_genie_misses_total")
				dh, dm := hits-prevHits, misses-prevMisses
				prevHits, prevMisses = hits, misses
				hit := "   -"
				if dh+dm > 0 {
					hit = fmt.Sprintf("%.2f", float64(dh)/float64(dh+dm))
				}
				breakers := ""
				for _, s := range snap.GaugeValues(cacheproto.PoolBreakerGaugeName) {
					breakers += string("COH?"[min(int(s), 3)])
				}
				if breakers == "" {
					breakers = "-"
				}
				// Misses that piggybacked on a coalesced single-flight load
				// this interval (zero with single-flight off).
				shared := snap.SumCounters("cachegenie_singleflight_shared_total")
				dshared := shared - prevShared
				prevShared = shared
				fmt.Printf("tick %9.0f cache-ops/s  p50=%-10v p99=%-10v hit=%s  breakers=%s  coalesced=%d\n",
					float64(iv.Count)/elapsed.Seconds(),
					time.Duration(iv.Quantile(0.50)).Round(time.Microsecond),
					time.Duration(iv.Quantile(0.99)).Round(time.Microsecond),
					hit, breakers, dshared)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runCoordinatedRun drives one coordinated distributed run: wait for the
// worker complement, phase them through the barriers, merge, and write the
// BENCH_exp11 artifacts. Any failure exits non-zero.
func runCoordinatedRun(listenAddr string, workers int, spec loadctl.Spec, joinTO, barrierTO time.Duration) {
	if len(spec.CacheAddrs) == 0 {
		log.Fatal("genieload: -coordinator requires -cache-addrs (the tier the workers will drive, e.g. from geniecache -nodes N)")
	}
	coord := loadctl.NewCoordinator(loadctl.CoordinatorConfig{
		JoinTimeout:    joinTO,
		BarrierTimeout: barrierTO,
		Logf:           log.Printf,
	})
	addr, err := coord.Listen(listenAddr)
	if err != nil {
		log.Fatalf("genieload: %v", err)
	}
	defer coord.Close()
	fmt.Printf("coordinator on %s: waiting for %d workers (join with: genieload -worker -join %s)\n",
		addr, workers, addr)
	m, err := coord.Run(spec, workers)
	if err != nil {
		log.Fatalf("genieload: coordinated run failed: %v", err)
	}

	res, err := workload.Exp11FromMerged(m, len(spec.CacheAddrs), spec.Replicas)
	if err == nil {
		err = workload.WriteArtifact("BENCH_exp11", res, res.Metrics)
	}
	if err != nil {
		log.Fatalf("genieload: %v", err)
	}
	p := res.Points[0]
	fmt.Printf("merged %d workers: %.0f ops/s aggregate (best single worker %.0f)  p50=%.0fµs p99=%.0fµs p999=%.0fµs hit=%.3f\n",
		p.Workers, p.AggOpsPerSec, p.BestWorkerOpsPerSec, p.P50us, p.P99us, p.P999us, p.HitRate)
	fmt.Println("written to BENCH_exp11.json and BENCH_exp11_metrics.prom")
}

// runCoordinatedWorker joins a coordinator and generates load under its
// barriers until the run completes or aborts. Exits non-zero on any
// failure, including an abort caused by a sibling worker.
func runCoordinatedWorker(join, id string, addrOverride []string, joinTO time.Duration) {
	if join == "" {
		log.Fatal("genieload: -worker requires -join (the coordinator's control address)")
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	res, err := loadctl.RunWorker(join, loadctl.WorkerConfig{
		ID:          id,
		JoinTimeout: joinTO,
		Logf:        log.Printf,
	}, &workload.TierLoad{Logf: log.Printf, AddrOverride: addrOverride})
	if err != nil {
		log.Fatalf("genieload: worker %s: %v", id, err)
	}
	fmt.Printf("worker %s: %d ops (%.0f ops/s), %d errors\n", id, res.Ops, res.OpsPerSec(), res.Errors)
}

func main() {
	experiment := flag.String("experiment", "all", "experiment to run ("+workload.ExperimentNames(workload.Experiments)+")")
	scale := flag.Int("scale", 50, "latency scale divisor (1 = paper-absolute latencies, slower)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	async := flag.Bool("async", false, "route trigger cache maintenance through the async invalidation bus")
	batchWindow := flag.Duration("batch-window", 0, "invalidation bus coalescing window (0 = bus default)")
	transportFlag := flag.String("transport", "inprocess", "cache transport: inprocess or remote (real TCP cacheproto nodes)")
	cacheAddrs := flag.String("cache-addrs", "", "comma-separated geniecache addresses for -transport remote (empty = launch loopback nodes)")
	shards := flag.Int("shards", 0, "cache-node lock-stripe count (0 = auto: next pow2 >= 4x GOMAXPROCS; 1 = unsharded baseline)")
	replicas := flag.Int("replicas", 0, "cache ring replication factor R (0/1 = single-owner routing; clamped to the node count)")
	zipfS := flag.Float64("zipf-s", 0, "direct rank-frequency zipf exponent for user popularity (0 = paper's duality-form sampler; exp13 sweeps s=1.1 itself)")
	flashCrowd := flag.Int("flash-crowd", 0, "percentage of page loads redirected to one viral page (0 = off; exp13 sets its own)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /metrics.json, /healthz and /debug/pprof on this address while experiments run (empty = disabled)")
	tick := flag.Duration("tick", 0, "print a live cache-tier line (ops/s, p50/p99, hit rate, breaker states) at this interval (0 = off)")
	// Coordinated distributed load generation (see the doc comment).
	coordAddr := flag.String("coordinator", "", "run as coordinator: listen for workers on this address and drive one coordinated run")
	workerCount := flag.Int("workers", 2, "coordinator mode: worker processes to wait for and drive")
	workerMode := flag.Bool("worker", false, "run as a load worker: join a coordinator and generate load under its barriers")
	joinAddr := flag.String("join", "", "worker mode: coordinator control address to join")
	workerID := flag.String("worker-id", "", "worker mode: name in coordinator logs and merged results (default host-pid)")
	clients := flag.Int("clients", 8, "coordinator mode: concurrent client goroutines per worker")
	duration := flag.Duration("duration", 10*time.Second, "coordinator mode: measured window length")
	warmup := flag.Duration("warmup", 2*time.Second, "coordinator mode: warmup window (keyspace seeding + pool fill) before measuring")
	keys := flag.Int("keys", workload.Exp11Keys, "coordinator mode: global keyspace size, partitioned across workers for writes")
	valueBytes := flag.Int("value-bytes", workload.Exp11ValueBytes, "coordinator mode: value size")
	writePct := flag.Int("write-pct", workload.Exp11WritePct, "coordinator mode: percentage of ops that are writes (to the worker's own key slice)")
	seed := flag.Int64("seed", 42, "coordinator mode: workload RNG seed (workers derive distinct streams from it)")
	joinTimeout := flag.Duration("join-timeout", loadctl.DefaultJoinTimeout, "coordinator/worker mode: how long registration may take")
	barrierTimeout := flag.Duration("barrier-timeout", loadctl.DefaultBarrierTimeout, "coordinator mode: slack past each phase before a missing worker aborts the run")
	// External crash drill (exp12) against a real geniedb; see the doc comment.
	dbAddr := flag.String("db-addr", "", "exp12 phases: geniedb dbproto address")
	exp12Phase := flag.String("exp12-phase", "", "external crash drill phase: load (drive geniedb until it is killed) or verify (audit the restarted geniedb + cache tier)")
	exp12State := flag.String("exp12-state", "exp12_state.json", "exp12 phases: journal file handed from load to verify across the crash")
	flag.Parse()

	transport, err := workload.ParseTransport(*transportFlag)
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	if *cacheAddrs != "" {
		for _, a := range strings.Split(*cacheAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	if *exp12Phase != "" {
		if *dbAddr == "" {
			log.Fatal("genieload: -exp12-phase requires -db-addr (the geniedb under drill)")
		}
		switch *exp12Phase {
		case "load":
			if err := workload.Exp12Load(*dbAddr, *exp12State, 8, *duration, log.Printf); err != nil {
				log.Fatalf("genieload: %v", err)
			}
			fmt.Printf("exp12 load journal written to %s\n", *exp12State)
		case "verify":
			res, err := workload.Exp12Verify(*dbAddr, addrs, *exp12State, log.Printf)
			if err != nil {
				log.Fatalf("genieload: %v", err)
			}
			if err := workload.WriteArtifact("BENCH_exp12", res, nil); err != nil {
				log.Fatalf("genieload: %v", err)
			}
			fmt.Println("audit written to BENCH_exp12.json")
		default:
			log.Fatalf("genieload: unknown -exp12-phase %q (want load or verify)", *exp12Phase)
		}
		return
	}
	if *workerMode {
		runCoordinatedWorker(*joinAddr, *workerID, addrs, *joinTimeout)
		return
	}
	if *coordAddr != "" {
		runCoordinatedRun(*coordAddr, *workerCount, loadctl.Spec{
			Experiment: "exp11",
			Clients:    *clients,
			WarmupMs:   warmup.Milliseconds(),
			MeasureMs:  duration.Milliseconds(),
			Keys:       *keys,
			ValueBytes: *valueBytes,
			WritePct:   *writePct,
			Seed:       *seed,
			CacheAddrs: addrs,
			Replicas:   *replicas,
		}, *joinTimeout, *barrierTimeout)
		return
	}
	// A bad -cache-addrs list used to surface as a silent zero-hit run;
	// fail fast with per-node dial errors before any experiment starts.
	if len(addrs) > 0 {
		if err := workload.PreflightCacheAddrs(addrs, 5*time.Second); err != nil {
			log.Fatalf("genieload: cache tier preflight failed:\n%v", err)
		}
	}
	opt := workload.ExpOptions{
		LatencyScale: *scale, Quick: *quick, Out: os.Stdout,
		Async: *async, BatchWindow: *batchWindow,
		Transport: transport, CacheAddrs: addrs, Shards: *shards,
		Replicas: *replicas,
		ZipfS:    *zipfS, FlashCrowdPct: *flashCrowd,
	}
	if *metricsAddr != "" || *tick > 0 {
		reg := obs.NewRegistry()
		opt.Metrics = reg
		if *metricsAddr != "" {
			ms, err := obs.Serve(*metricsAddr, reg,
				obs.BreakerHealth(reg, cacheproto.PoolBreakerGaugeName))
			if err != nil {
				log.Fatalf("genieload: %v", err)
			}
			defer ms.Close()
			fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ms.Addr)
		}
		if *tick > 0 {
			defer startTicker(reg, *tick)()
		}
	}
	if err := workload.RunExperiments(workload.Experiments, *experiment, opt); err != nil {
		log.Fatal(err)
	}
}
