// Benchmarks regenerating the paper's evaluation (§5). Each benchmark
// corresponds to a table or figure; custom metrics carry the numbers the
// paper reports (pages/s throughput, mean page latency, hit rates). The
// benchmarks for Experiment 7 onward run the workload.Experiments registry
// entries, so they write the same BENCH_<name>.json artifacts genieload
// does.
//
// The latency model is the paper-calibrated one scaled down 50x (see
// internal/latency.PaperScaled); absolute numbers are therefore ~50x the
// paper's on the time axis divided by our smaller dataset, but the shape —
// who wins, by what factor, where the curves bend — is the reproduction
// target.
package cachegenie

import (
	"fmt"
	"testing"
	"time"

	"cachegenie/internal/core"
	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/latency"
	"cachegenie/internal/orm"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
	"cachegenie/internal/workload"
)

func benchOpts() workload.ExpOptions {
	return workload.ExpOptions{Quick: true, LatencyScale: 50}
}

// shortPoints trims a sweep to its last point under -short: the CI bench
// smoke runs every benchmark once so the harness can't bit-rot, it does not
// redraw every curve. Full sweeps need a plain `go test -bench .`.
func shortPoints[T any](xs []T) []T {
	if testing.Short() && len(xs) > 1 {
		return xs[len(xs)-1:]
	}
	return xs
}

// runExperiment runs the named workload.Experiments entry once with the
// benchmark options — writing its artifact — and returns its typed result.
func runExperiment[R any](b *testing.B, name string) R {
	b.Helper()
	for _, e := range workload.Experiments {
		if e.Name == name {
			res, err := e.Run(benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			return res.(R)
		}
	}
	b.Fatalf("no experiment %q in the registry", name)
	panic("unreachable")
}

// reportThroughput executes fn b.N times and reports the mean of the returned
// throughput as pages/s.
func reportThroughput(b *testing.B, fn func() (float64, error)) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		tp, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		total += tp
	}
	b.ReportMetric(total/float64(b.N), "pages/s")
	b.ReportMetric(0, "ns/op") // wall time is not the interesting axis here
}

// ---------- §5.3 microbenchmarks ----------

// BenchmarkMicroDBvsCacheLookup reproduces the §5.3 lookup comparison
// (paper: a DB B+tree lookup takes 10-25x a memcached get).
func BenchmarkMicroDBvsCacheLookup(b *testing.B) {
	model := latency.PaperScaled(50)
	db := sqldb.MustOpen(sqldb.Config{Latency: model, BufferPoolPages: 1024})
	if _, err := db.Exec("CREATE TABLE kv (k INT NOT NULL, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX idx_kv_k ON kv (k)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Exec("INSERT INTO kv (k, v) VALUES ($1, $2)",
			sqldb.I64(int64(i)), sqldb.Str(fmt.Sprintf("value-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	cache := kvcache.WithLatency(kvcache.New(0), model.CacheRoundTrip, latency.RealSleeper{})
	cache.Set("kv:1", []byte("value-1"), 0)

	b.Run("DBLookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT v FROM kv WHERE k = $1", sqldb.I64(int64(i%2000))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CacheLookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache.Get("kv:1")
		}
	})
}

// BenchmarkMicroTriggerOverhead reproduces the §5.3 INSERT ladder (paper:
// 6.3ms plain, 6.5ms no-op trigger, 11.9ms trigger opening a remote cache
// connection).
func BenchmarkMicroTriggerOverhead(b *testing.B) {
	model := latency.PaperScaled(50)
	mkDB := func(b *testing.B) *sqldb.DB {
		db := sqldb.MustOpen(sqldb.Config{Latency: model, BufferPoolPages: 4096})
		if _, err := db.Exec("CREATE TABLE t (v TEXT)"); err != nil {
			b.Fatal(err)
		}
		return db
	}
	insertLoop := func(b *testing.B, db *sqldb.DB) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("INSERT INTO t (v) VALUES ($1)", sqldb.Str("x")); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("PlainInsert", func(b *testing.B) {
		insertLoop(b, mkDB(b))
	})
	b.Run("NoopTrigger", func(b *testing.B) {
		db := mkDB(b)
		if err := db.CreateTrigger(sqldb.Trigger{
			Name: "noop", Table: "t", Op: sqldb.TrigInsert,
			Fn: func(q sqldb.Queryer, ev sqldb.TriggerEvent) error { return nil },
		}); err != nil {
			b.Fatal(err)
		}
		insertLoop(b, db)
	})
	b.Run("TriggerWithCacheConnect", func(b *testing.B) {
		db := mkDB(b)
		cache := kvcache.WithLatency(kvcache.New(0), model.CacheRoundTrip, latency.RealSleeper{})
		sleeper := latency.RealSleeper{}
		if err := db.CreateTrigger(sqldb.Trigger{
			Name: "connect", Table: "t", Op: sqldb.TrigInsert,
			Fn: func(q sqldb.Queryer, ev sqldb.TriggerEvent) error {
				sleeper.Sleep(model.CacheConnect)
				cache.Set("k", []byte("v"), 0)
				return nil
			},
		}); err != nil {
			b.Fatal(err)
		}
		insertLoop(b, db)
	})
}

// ---------- Experiment 1: Fig 2a (throughput) and Fig 2b (latency) ----------

// BenchmarkExp1Throughput sweeps client counts for NoCache / Invalidate /
// Update. Expected shape (Fig 2a): Update > Invalidate > NoCache from ~15
// clients, 2-2.5x at saturation; NoCache plateaus first. The meanlat metric
// is the Fig 2b series.
func BenchmarkExp1Throughput(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeNoCache, workload.ModeInvalidate, workload.ModeUpdate}) {
		for _, clients := range shortPoints(workload.Exp1Clients(true)) {
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				var totalTP float64
				var totalLat time.Duration
				for i := 0; i < b.N; i++ {
					rep, err := workload.RunMode(opt, mode, clients, 20, 2.0)
					if err != nil {
						b.Fatal(err)
					}
					totalTP += rep.Throughput
					totalLat += rep.MeanLatency()
				}
				b.ReportMetric(totalTP/float64(b.N), "pages/s")
				b.ReportMetric(float64(totalLat.Milliseconds())/float64(b.N), "meanlat-ms")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkExp1PageLatency reproduces Table 2: per-page-type mean latency
// at the 15-client operating point for each system.
func BenchmarkExp1PageLatency(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeNoCache, workload.ModeInvalidate, workload.ModeUpdate}) {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := workload.RunMode(opt, mode, 15, 20, 2.0)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range social.PageTypes() {
					b.ReportMetric(float64(rep.ByPage[p].Mean.Microseconds())/1000, p.String()+"-ms")
				}
			}
			b.ReportMetric(0, "ns/op")
		})
	}
}

// ---------- Experiment 2: Fig 3a (read/write mix) ----------

// BenchmarkExp2WorkloadMix sweeps the read fraction. Expected shape: at 0%
// reads caching is slightly worse than NoCache (trigger overhead on
// writes); at 100% reads it is many times better; the Update-Invalidate
// gap grows with reads and closes again at 100%.
func BenchmarkExp2WorkloadMix(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeNoCache, workload.ModeInvalidate, workload.ModeUpdate}) {
		for _, readPct := range shortPoints(workload.Exp2ReadPcts(true)) {
			b.Run(fmt.Sprintf("%s/read=%d", mode, readPct), func(b *testing.B) {
				reportThroughput(b, func() (float64, error) {
					rep, err := workload.RunMode(opt, mode, 15, 100-readPct, 2.0)
					if err != nil {
						return 0, err
					}
					return rep.Throughput, nil
				})
			})
		}
	}
}

// ---------- Experiment 3: Fig 3b (zipf skew) ----------

// BenchmarkExp3ZipfSkew sweeps the user-distribution parameter. Expected
// shape: cached systems improve as the skew flattens (a: 2.0 -> 1.1, ~1.5x
// in the paper) because the disk-bound database sees more repeated work;
// NoCache stays flat (it is CPU-bound on repeated computation either way).
func BenchmarkExp3ZipfSkew(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeNoCache, workload.ModeInvalidate, workload.ModeUpdate}) {
		for _, a := range shortPoints(workload.Exp3ZipfAs(true)) {
			b.Run(fmt.Sprintf("%s/a=%.1f", mode, a), func(b *testing.B) {
				reportThroughput(b, func() (float64, error) {
					rep, err := workload.RunMode(opt, mode, 15, 20, a)
					if err != nil {
						return 0, err
					}
					return rep.Throughput, nil
				})
			})
		}
	}
}

// ---------- Experiment 4: Fig 3c (cache size) ----------

// BenchmarkExp4CacheSize sweeps cache capacity. Expected shape: Update
// plateaus at a larger cache than Invalidate (it never removes entries, so
// it needs more room: 192MB vs 128MB in the paper, scaled here), and both
// beat NoCache even at the smallest size.
func BenchmarkExp4CacheSize(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeInvalidate, workload.ModeUpdate}) {
		for _, size := range shortPoints(workload.Exp4CacheSizes(true)) {
			b.Run(fmt.Sprintf("%s/cache=%dKiB", mode, size>>10), func(b *testing.B) {
				var totalTP, totalHit float64
				for i := 0; i < b.N; i++ {
					pts, err := workload.Exp4(opt, []int64{size})
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range pts {
						if p.Mode == mode {
							totalTP += p.Throughput
							totalHit += p.HitRate
						}
					}
				}
				b.ReportMetric(totalTP/float64(b.N), "pages/s")
				b.ReportMetric(totalHit/float64(b.N), "hit-rate")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkExp4Colocated reproduces the §5.4 variant with the cache on the
// database machine (DB buffer pool shrunk by the cache's memory share).
// Expected shape: colocated throughput drops but stays above NoCache.
func BenchmarkExp4Colocated(b *testing.B) {
	opt := benchOpts()
	b.Run("separate-vs-colocated", func(b *testing.B) {
		var sep, colo float64
		for i := 0; i < b.N; i++ {
			res, err := workload.Exp4Colocated(opt)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res {
				if r.Mode == workload.ModeUpdate {
					sep += r.SeparateThroughput
					colo += r.ColocatedThroughput
				}
			}
		}
		b.ReportMetric(sep/float64(b.N), "separate-pages/s")
		b.ReportMetric(colo/float64(b.N), "colocated-pages/s")
		b.ReportMetric(0, "ns/op")
	})
}

// ---------- Experiment 5: trigger overhead under load ----------

// BenchmarkExp5TriggerOverhead compares the full system against the
// "ideal" system with triggers removed (paper: 22-28% overhead).
func BenchmarkExp5TriggerOverhead(b *testing.B) {
	opt := benchOpts()
	for _, mode := range shortPoints([]workload.Mode{workload.ModeInvalidate, workload.ModeUpdate}) {
		b.Run(mode.String(), func(b *testing.B) {
			var with, ideal float64
			for i := 0; i < b.N; i++ {
				res, err := workload.Exp5(opt)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Mode == mode {
						with += r.WithTriggers
						ideal += r.WithoutTriggers
					}
				}
			}
			b.ReportMetric(with/float64(b.N), "with-triggers-pages/s")
			b.ReportMetric(ideal/float64(b.N), "ideal-pages/s")
			if ideal > 0 {
				b.ReportMetric(100*(ideal-with)/ideal, "overhead-pct")
			}
			b.ReportMetric(0, "ns/op")
		})
	}
}

// ---------- Experiment 6: asynchronous invalidation bus ----------

// BenchmarkExp6AsyncInvalidation compares synchronous per-op trigger→cache
// propagation against the asynchronous batched invalidation bus on a
// write-heavy mix with the paper's trigger connection cost in effect.
// Expected shape: async wins on write throughput and p99 write latency —
// the §5.3 connection setup and per-op round trips leave the write path
// and are amortized per batch by the bus.
func BenchmarkExp6AsyncInvalidation(b *testing.B) {
	opt := benchOpts()
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			var tp, p99 float64
			for i := 0; i < b.N; i++ {
				cfg := opt.StackConfig(workload.ModeUpdate)
				cfg.AsyncInvalidation = async
				st, err := workload.BuildStack(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := workload.Run(st, workload.RunConfig{
					Clients: 15, Sessions: 3, PagesPerSession: 8, WritePct: 60,
					ZipfA: 2.0, WarmupSessions: 20, RngSeed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				tp += rep.Throughput
				p99 += float64(rep.ByPage[social.PageCreateBM].P99.Microseconds()) / 1000
				if st.Genie != nil {
					st.Genie.Close()
				}
			}
			b.ReportMetric(tp/float64(b.N), "pages/s")
			b.ReportMetric(p99/float64(b.N), "write-p99-ms")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkInvBusPropagation measures the bus directly: b.N invalidations
// against a latency-wrapped cache, sync (one connection charge + one round
// trip per op) vs async (amortized per flush). The ops/s gap is the §5.3
// overhead converted into a tunable.
func BenchmarkInvBusPropagation(b *testing.B) {
	model := latency.PaperScaled(500)
	for _, sync := range []bool{true, false} {
		name := "async"
		if sync {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			cache := kvcache.WithLatency(kvcache.New(0), model.CacheRoundTrip, latency.RealSleeper{})
			bus := invbus.New(invbus.Config{
				Cache: cache, Sync: sync,
				ConnectCost: model.CacheConnect, Sleeper: latency.RealSleeper{},
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish(invbus.Op{Kind: invbus.OpDelete, Key: fmt.Sprintf("key-%d", i%512)})
			}
			bus.Close()
			b.StopTimer()
			st := bus.Stats()
			if st.Flushes > 0 {
				b.ReportMetric(float64(st.Enqueued)/float64(st.Flushes), "ops/flush")
			}
		})
	}
}

// ---------- Experiment 7: remote cache tier over real TCP ----------

// BenchmarkExp7RemoteCluster drives the full social workload against real
// cacheproto servers on loopback TCP (4-node consistent-hash ring, pooled
// clients, parallel batch fan-out), sync and async-bus each, with the
// in-process transport as the baseline. Expected shape: remote costs
// throughput everywhere (each cache hop is a real syscall + TCP round
// trip), and the async bus recovers most of the write-path loss — batching
// matters more when round trips are real. The sweep is also written to
// BENCH_exp7.json, which CI uploads as a workflow artifact.
func BenchmarkExp7RemoteCluster(b *testing.B) {
	tp, p99 := map[string]float64{}, map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, p := range runExperiment[workload.Exp7Result](b, "exp7").Points {
			point := fmt.Sprintf("%s-async=%v", p.Transport, p.Async)
			tp[point] += p.Throughput
			p99[point] += p.WriteP99Ms
		}
	}
	for point := range tp {
		b.ReportMetric(tp[point]/float64(b.N), "pages/s-"+point)
		b.ReportMetric(p99[point]/float64(b.N), "write-p99-ms-"+point)
	}
	b.ReportMetric(0, "ns/op")
}

// ---------- Experiment 8: node failure and live ring membership ----------

// BenchmarkExp8NodeFailure runs the failure drill: a 4-node loopback tier
// loses one node mid-run. Expected shape: hit rate collapses by roughly the
// dead node's 1/N key share; per-op latency against the dead node is
// orders of magnitude lower with the breaker (in-process short-circuit)
// than without (a fresh failed dial per op); removing the node remaps only
// ~1/N of keys; and reviving + rejoining it restores the original
// assignment exactly, recovering hit rate. The timeline is also written to
// BENCH_exp8.json, which CI uploads as a workflow artifact.
func BenchmarkExp8NodeFailure(b *testing.B) {
	var failFast, dialStorm, degradedHit, rejoinedHit, remap float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp8Result](b, "exp8")
		failFast += res.FailFastP99Us
		dialStorm += res.DialStormP99Us
		degradedHit += res.Phases.Phase("degraded").HitRate
		rejoinedHit += res.Phases.Phase("rejoined").HitRate
		remap += res.RemapFraction
	}
	b.ReportMetric(failFast/float64(b.N), "failfast-p99-us")
	b.ReportMetric(dialStorm/float64(b.N), "dialstorm-p99-us")
	b.ReportMetric(degradedHit/float64(b.N), "degraded-hit-rate")
	b.ReportMetric(rejoinedHit/float64(b.N), "rejoined-hit-rate")
	b.ReportMetric(remap/float64(b.N), "remap-fraction")
	b.ReportMetric(0, "ns/op")
}

// ---------- Experiment 11: coordinated distributed load ----------

// BenchmarkExp11Coordinated runs the coordinated saturation sweep fully
// in-process: per worker count W a loopback cache tier, a loadctl
// coordinator, and W worker goroutines (real TCP control protocol, real
// cacheproto data path) measure in barrier lockstep and merge their
// latency histograms exact-bucket. Expected shape: aggregate ops/s grows
// with W (and always exceeds the best single worker's rate — the CI
// distributed-smoke job asserts the same on separate OS processes). The
// sweep is written to BENCH_exp11.json with the coordinator registry dump
// alongside, both uploaded as workflow artifacts.
func BenchmarkExp11Coordinated(b *testing.B) {
	var agg1, aggN, best float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp11Result](b, "exp11")
		first, final := res.Points[0], res.Points[len(res.Points)-1]
		agg1 += first.AggOpsPerSec
		aggN += final.AggOpsPerSec
		best += final.BestWorkerOpsPerSec
	}
	n := float64(b.N)
	b.ReportMetric(agg1/n, "ops/s-w1")
	b.ReportMetric(aggN/n, "ops/s-max-workers")
	b.ReportMetric(best/n, "best-single-worker-ops/s")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkExp12CrashRecovery runs the in-process crash drill: write-heavy
// load into a durable (WAL group commit) engine, DB.Crash mid-flight with
// open transactions whose trigger effects already reached the cache, then
// recovery. Expected shape: recovery wall clock grows roughly linearly
// with replayed log length; lost/resurrected/post-flush violations are
// exactly zero at every point (the CI crash-drill job asserts the same
// against a kill -9'd geniedb process). Written to BENCH_exp12.json.
func BenchmarkExp12CrashRecovery(b *testing.B) {
	var recMs, violations float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp12Result](b, "exp12")
		final := res.Points[len(res.Points)-1]
		recMs += final.RecoveryMs
		for _, p := range res.Points {
			violations += float64(p.LostCommitted + p.ResurrectedUncommitted + p.ViolationsWithFlush)
		}
	}
	n := float64(b.N)
	b.ReportMetric(recMs/n, "recovery-ms-max-point")
	b.ReportMetric(violations/n, "violations")
	b.ReportMetric(0, "ns/op")
	if violations > 0 {
		b.Fatalf("crash drill leaked %v violations across runs", violations)
	}
}

// ---------- Experiment 10: replica-aware cluster tier ----------

// BenchmarkExp10ReplicatedFailover reruns the Experiment 8 kill/revive
// timeline at R=1 and R=2 on the 4-node loopback tier. Expected shape: the
// R=1 degraded phase loses the dead node's ~1/N key share (hit ~0.80, the
// exp8 number) while the R=2 one rides through the kill on breaker-aware
// failover reads (hit within a few points of healthy), the rejoin handoff
// warms the revived node, and the closing staleness scan reports zero
// divergent and zero orphaned keys — trigger invalidations demonstrably
// reached every replica. The timeline is also written to BENCH_exp10.json,
// which CI uploads as a workflow artifact.
func BenchmarkExp10ReplicatedFailover(b *testing.B) {
	var hitR1, hitR2, stale float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp10Result](b, "exp10")
		if tl, ok := res.Timeline(1); ok {
			hitR1 += tl.Phases.Phase("degraded").HitRate
			stale += float64(tl.DivergentKeys + tl.OrphanKeys)
		}
		if tl, ok := res.Timeline(workload.Exp10Replicas); ok {
			hitR2 += tl.Phases.Phase("degraded").HitRate
			stale += float64(tl.DivergentKeys + tl.OrphanKeys)
		}
	}
	b.ReportMetric(hitR1/float64(b.N), "degraded-hit-r1")
	b.ReportMetric(hitR2/float64(b.N), "degraded-hit-r2")
	b.ReportMetric(stale/float64(b.N), "stale-keys")
	b.ReportMetric(0, "ns/op")
}

// ---------- Experiment 13: hot keys under zipf skew + flash crowd ----------

// BenchmarkExp13HotKeys runs the zipf s=1.1 + flash-crowd workload on the
// 4-node R=2 tier with single-flight off and on. Expected shape:
// single-flight collapses the stampede's database loads to ~1 per hot key
// per miss window. The sweep is written to BENCH_exp13.json (plus the
// single-flight point's metrics dump), which CI uploads as workflow
// artifacts.
func BenchmarkExp13HotKeys(b *testing.B) {
	var p999Off, p999SF, imbOff, imbSF, dbOff, dbSF float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp13Result](b, "exp13")
		if p, ok := res.Point("all-off"); ok {
			p999Off += p.ReadP999Ms * 1000
			imbOff += p.Imbalance
			dbOff += float64(p.DBReadLoads)
		}
		if p, ok := res.Point("singleflight"); ok {
			p999SF += p.ReadP999Ms * 1000
			imbSF += p.Imbalance
			dbSF += float64(p.DBReadLoads)
		}
	}
	n := float64(b.N)
	b.ReportMetric(p999Off/n, "p999us-off")
	b.ReportMetric(p999SF/n, "p999us-sf")
	b.ReportMetric(imbOff/n, "imbalance-off")
	b.ReportMetric(imbSF/n, "imbalance-sf")
	b.ReportMetric(dbOff/n, "db-loads-off")
	b.ReportMetric(dbSF/n, "db-loads-sf")
	b.ReportMetric(0, "ns/op")
}

// ---------- Experiment 9: single-node multi-core scaling ----------

// BenchmarkExp9CoreScaling pits the 1-shard (single-mutex, global-LRU)
// store against the lock-striped one at rising client concurrency, on the
// in-process and real-TCP paths. Expected shape on a multi-core runner: the
// baseline flatlines past ~1 core's worth of clients while the sharded
// store keeps climbing (>=2x at 16+ clients); allocs/op stays ~0 for the
// in-process mix thanks to the zero-allocation hot path. The sweep is also
// written to BENCH_exp9.json (with GOMAXPROCS recorded — the curve can only
// separate on a runner that has cores to scale over), which CI uploads as a
// workflow artifact.
func BenchmarkExp9CoreScaling(b *testing.B) {
	var last workload.Exp9Result
	var localSpeed, remoteSpeed float64
	for i := 0; i < b.N; i++ {
		res := runExperiment[workload.Exp9Result](b, "exp9")
		last = res
		clients := workload.Exp9Clients(true)
		maxC := clients[len(clients)-1]
		localSpeed += res.Speedup("local", maxC)
		remoteSpeed += res.Speedup("remote", maxC)
	}
	b.ReportMetric(localSpeed/float64(b.N), "local-speedup")
	b.ReportMetric(remoteSpeed/float64(b.N), "remote-speedup")
	b.ReportMetric(float64(last.GOMAXPROCS), "gomaxprocs")
	b.ReportMetric(0, "ns/op")
}

// ---------- Ablations (design choices from DESIGN.md) ----------

// BenchmarkAblationTemplateInvalidation contrasts CacheGenie's key-granular
// invalidation with GlobeCBC-style template-wide invalidation (Table 1's
// behavioural row). Expected: CacheGenie's hit rate is strictly higher.
func BenchmarkAblationTemplateInvalidation(b *testing.B) {
	opt := benchOpts()
	var genieHit, tmplHit float64
	for i := 0; i < b.N; i++ {
		res, err := workload.AblationTemplateInvalidation(opt)
		if err != nil {
			b.Fatal(err)
		}
		genieHit += res.GenieHitRate
		tmplHit += res.TemplateHitRate
	}
	b.ReportMetric(genieHit/float64(b.N), "genie-hit-rate")
	b.ReportMetric(tmplHit/float64(b.N), "template-hit-rate")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkAblationTopKReserve measures the paper's §3.2 reserve mechanism:
// more reserve rows absorb more deletes before a full recompute.
func BenchmarkAblationTopKReserve(b *testing.B) {
	for _, reserve := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("reserve=%d", reserve), func(b *testing.B) {
			var recomputes float64
			for i := 0; i < b.N; i++ {
				n, err := topkChurn(reserve)
				if err != nil {
					b.Fatal(err)
				}
				recomputes += float64(n)
			}
			b.ReportMetric(recomputes/float64(b.N), "recomputes")
		})
	}
}

// topkChurn runs a fixed insert/delete churn against a top-K cached object
// and returns how many full recomputes the triggers needed.
func topkChurn(reserve int) (int64, error) {
	db := sqldb.MustOpen(sqldb.Config{})
	reg := orm.NewRegistry(db)
	reg.MustRegister(&orm.ModelDef{
		Name: "Wall", Table: "wall",
		Fields: []orm.FieldDef{
			{Name: "user_id", Type: sqldb.TypeInt, NotNull: true},
			{Name: "date_posted", Type: sqldb.TypeTime},
		},
		Indexes: [][]string{{"user_id"}},
	})
	if err := reg.CreateTables(); err != nil {
		return 0, err
	}
	genie, err := core.New(core.Config{Registry: reg, DB: db, Cache: kvcache.New(0)})
	if err != nil {
		return 0, err
	}
	if _, err := genie.Cacheable(core.Spec{
		Name: "topk", Class: core.TopKQuery, MainModel: "Wall",
		WhereFields: []string{"user_id"},
		SortField:   "date_posted", SortDesc: true, K: 10, Reserve: reserve,
	}); err != nil {
		return 0, err
	}
	base := time.Unix(1e6, 0)
	for i := 0; i < 100; i++ {
		if _, err := reg.Insert("Wall", orm.Fields{
			"user_id": 1, "date_posted": base.Add(time.Duration(i) * time.Minute),
		}); err != nil {
			return 0, err
		}
	}
	// Warm the cache, then churn: delete the newest repeatedly.
	if _, err := reg.Objects("Wall").Filter("user_id", 1).OrderBy("-date_posted").Limit(10).All(); err != nil {
		return 0, err
	}
	for i := 99; i >= 40; i-- {
		if _, err := reg.Objects("Wall").
			Filter("user_id", 1).
			Filter("date_posted", base.Add(time.Duration(i)*time.Minute)).
			Delete(); err != nil {
			return 0, err
		}
	}
	return genie.Stats().Recomputes, nil
}

// BenchmarkAblationTriggerConnectionReuse measures the paper's proposed
// future-work optimization (§5.3): reusing trigger->cache connections
// removes the dominant trigger cost.
func BenchmarkAblationTriggerConnectionReuse(b *testing.B) {
	opt := benchOpts()
	for _, reuse := range []bool{false, true} {
		b.Run(fmt.Sprintf("reuse=%v", reuse), func(b *testing.B) {
			reportThroughput(b, func() (float64, error) {
				cfg := opt.StackConfig(workload.ModeUpdate)
				cfg.ReuseTriggerConnections = reuse
				st, err := workload.BuildStack(cfg)
				if err != nil {
					return 0, err
				}
				rep, err := workload.Run(st, workload.RunConfig{
					Clients: 15, Sessions: 3, PagesPerSession: 8, WritePct: 40,
					ZipfA: 2.0, WarmupSessions: 20, RngSeed: 3,
				})
				if err != nil {
					return 0, err
				}
				return rep.Throughput, nil
			})
		})
	}
}

// BenchmarkAblationCacheCluster spreads the logical cache over 1 vs 4
// consistent-hash nodes; the single-logical-cache property means hit rates
// should be unchanged.
func BenchmarkAblationCacheCluster(b *testing.B) {
	opt := benchOpts()
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				cfg := opt.StackConfig(workload.ModeUpdate)
				cfg.CacheNodes = nodes
				st, err := workload.BuildStack(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := workload.Run(st, workload.RunConfig{
					Clients: 8, Sessions: 3, PagesPerSession: 8, WritePct: 20,
					ZipfA: 2.0, WarmupSessions: 10, RngSeed: 4,
				}); err != nil {
					b.Fatal(err)
				}
				gs := st.Genie.Stats()
				if total := gs.Hits + gs.Misses; total > 0 {
					hit += float64(gs.Hits) / float64(total)
				}
			}
			b.ReportMetric(hit/float64(b.N), "hit-rate")
			b.ReportMetric(0, "ns/op")
		})
	}
}
