package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"cachegenie/internal/cluster"
	"cachegenie/internal/core"
	"cachegenie/internal/invbus"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/sqldb"
	"cachegenie/internal/storage"
)

// counters is every cumulative count the benchmark reads around the
// measured phase; metrics are differences of two snapshots.
type counters struct {
	queries, execs, lockTimeouts int64
	lookups                      int64
	cacheOps                     int64
	batches, batchOps            int64
	genie                        core.Stats
	inv                          invbus.Stats
	db                           sqldb.Stats
	bp                           storage.PoolStats
	store                        kvcache.Stats
	nodeGets                     []int64
	replica                      cluster.ReplicaStats
	poolWaits, poolErrors        int64
	server                       obs.HistSnapshot
	walFsync                     obs.HistSnapshot
	walCommits, walBytes         int64
	allocBytes, gcCycles         uint64
	gcCPU, totalCPU              float64
	stealTicks                   int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot(st *stack) counters {
	c := counters{
		queries:      st.conn.queries.Load(),
		execs:        st.conn.execs.Load(),
		lockTimeouts: st.conn.lockTimeouts.Load(),
		lookups:      st.icpt.lookups.Load(),
		cacheOps:     st.logical.ops.Load(),
		batches:      st.logical.batches.Load(),
		batchOps:     st.logical.batchOps.Load(),
		genie:        st.genie.Stats(),
		inv:          st.genie.InvStats(),
		db:           st.db.Stats(),
		bp:           st.db.BufferPool().Stats(),
		store:        st.storeStats(),
		replica:      st.logical.ReplicaStats(),
	}
	for _, s := range st.stores {
		x := s.Stats()
		c.nodeGets = append(c.nodeGets, x.Hits+x.Misses)
	}
	for _, p := range st.pools {
		c.poolWaits += p.Stats().Waits
	}
	for _, srv := range st.servers {
		for i := range srv.Metrics().OpNanos {
			c.server.Add(srv.Metrics().OpNanos[i].Snapshot())
		}
	}
	snap := st.obs.Snapshot()
	c.poolErrors = snap.SumCounters("cachegenie_pool_op_errors_total")
	c.walCommits = snap.Counters["cachegenie_wal_commits_total"]
	c.walBytes = snap.Counters["cachegenie_wal_appended_bytes_total"]
	st.obs.VisitHistograms(func(name, _ string, h *obs.Histogram) {
		if name == "cachegenie_wal_fsync_seconds" {
			c.walFsync = h.Snapshot()
		}
	})
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		rs[i].Name = n
	}
	metrics.Read(rs)
	c.allocBytes = rs[0].Value.Uint64()
	c.gcCycles = rs[1].Value.Uint64()
	c.gcCPU = rs[2].Value.Float64()
	c.totalCPU = rs[3].Value.Float64()
	c.stealTicks = stealTicks()
	return c
}

// stealTicks reads the machine-wide steal time, in USER_HZ ticks, from
// /proc/stat; 0 where it is not available.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// quantile is the exact nearest-rank q-quantile of xs, in nanoseconds.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty slice (mean of the middle two for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value with its unit and the number of samples
// behind it (pages, spans, or keys; 1 for a single count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// endToEnd computes the user-visible metrics of one untraced trial.
func endToEnd(ph phaseResult, before, after counters, setupS, heapMB float64, a auditResult) map[string]metric {
	pages := float64(ph.Pages)
	stmts := float64(after.queries - before.queries + after.execs - before.execs)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return map[string]metric{
		"pages_per_s":       {pages / ph.Elapsed.Seconds(), "1/s", ph.Pages},
		"read_p50_ms":       {ms(quantile(ph.ReadNs, 0.5)), "ms", len(ph.ReadNs)},
		"read_p95_ms":       {ms(quantile(ph.ReadNs, 0.95)), "ms", len(ph.ReadNs)},
		"read_p99_ms":       {ms(quantile(ph.ReadNs, 0.99)), "ms", len(ph.ReadNs)},
		"read_p999_ms":      {ms(quantile(ph.ReadNs, 0.999)), "ms", len(ph.ReadNs)},
		"write_p50_ms":      {ms(quantile(ph.WriteNs, 0.5)), "ms", len(ph.WriteNs)},
		"write_p95_ms":      {ms(quantile(ph.WriteNs, 0.95)), "ms", len(ph.WriteNs)},
		"write_p99_ms":      {ms(quantile(ph.WriteNs, 0.99)), "ms", len(ph.WriteNs)},
		"write_p999_ms":     {ms(quantile(ph.WriteNs, 0.999)), "ms", len(ph.WriteNs)},
		"failed_frac":       {ratio(float64(ph.Failed), pages), "fraction", ph.Pages},
		"db_stmts_per_page": {stmts / pages, "count", ph.Pages},
		"stale_frac":        {a.frac(), "fraction", a.Keys},
		"heap_mb":           {heapMB, "MB", 1},
		"setup_s":           {setupS, "s", 1},
		// Counts both trial kinds keep, to check that tracing does not
		// change the work a page does.
		"kvcache.ops_per_page":      {float64(after.cacheOps-before.cacheOps) / pages, "count", ph.Pages},
		"invbus.published_per_page": {float64(after.inv.Enqueued-before.inv.Enqueued) / pages, "count", ph.Pages},
	}
}

// perLayer computes the layer metrics of one traced trial. Spans give the
// latencies and self times; counters give the counts.
func perLayer(st *stack, ph phaseResult, b, a counters, ts traceSummary, au auditResult) map[string]metric {
	pages := float64(ph.Pages)
	np := ph.Pages
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	durs := func(ly layer, ops ...uint8) []int64 {
		var out []int64
		for _, op := range ops {
			out = append(out, ts.Durations[ly][op]...)
		}
		return out
	}
	perPage := func(ns int64) float64 { return us(ns) / pages }
	m := map[string]metric{}
	put := func(name string, v float64, unit string, n int) { m[name] = metric{v, unit, n} }

	hits := a.genie.Hits - b.genie.Hits
	misses := a.genie.Misses - b.genie.Misses
	execs := float64(a.execs - b.execs)
	trigOps := (a.genie.TriggerUpdates - b.genie.TriggerUpdates) + (a.genie.TriggerDeletes - b.genie.TriggerDeletes) +
		(a.genie.TriggerSkips - b.genie.TriggerSkips)
	lookups := durs(layerCore, opLookupRows, opLookupCount)
	put("core.lookups_per_page", float64(a.lookups-b.lookups)/pages, "count", np)
	put("core.hit_ratio", ratio(float64(hits), float64(hits+misses)), "fraction", int(hits+misses))
	put("core.lookup_p50_us", us(quantile(lookups, 0.5)), "us", len(lookups))
	put("core.lookup_p99_us", us(quantile(lookups, 0.99)), "us", len(lookups))
	put("core.self_us_per_page", perPage(ts.SelfPage[layerCore]), "us", np)
	put("core.populate_refused_per_miss", ratio(float64(a.genie.PopulateRefused-b.genie.PopulateRefused), float64(misses)), "count", int(misses))
	put("core.cas_retries_per_write", ratio(float64(a.genie.CasRetries-b.genie.CasRetries), execs), "count", int(execs))
	put("core.trigger_ops_per_write", ratio(float64(trigOps), execs), "count", int(execs))
	put("core.topk_recomputes_per_page", float64(a.genie.Recomputes-b.genie.Recomputes)/pages, "count", np)
	put("core.audited_keys", float64(au.Keys), "count", au.Keys)

	gets := durs(layerCache, opGet)
	sh, sm := a.store.Hits-b.store.Hits, a.store.Misses-b.store.Misses
	batches := a.batches - b.batches
	put("kvcache.ops_per_page", float64(a.cacheOps-b.cacheOps)/pages, "count", np)
	put("kvcache.get_p50_us", us(quantile(gets, 0.5)), "us", len(gets))
	put("kvcache.get_p99_us", us(quantile(gets, 0.99)), "us", len(gets))
	put("kvcache.busy_us_per_page", perPage(ts.Busy[layerCache]), "us", np)
	put("kvcache.batch_ops_per_call", ratio(float64(a.batchOps-b.batchOps), float64(batches)), "count", int(batches))
	put("kvcache.evictions_per_page", float64(a.store.Evictions-b.store.Evictions)/pages, "count", np)
	put("kvcache.store_hit_ratio", ratio(float64(sh), float64(sh+sm)), "fraction", int(sh+sm))
	put("kvcache.bytes_mb", float64(a.store.BytesUsed)/1e6, "MB", 1)

	if st.ring != nil {
		var maxGets, sumGets float64
		for i := range a.nodeGets {
			d := float64(a.nodeGets[i] - b.nodeGets[i])
			sumGets += d
			maxGets = math.Max(maxGets, d)
		}
		put("cluster.self_us_per_page", perPage(ts.SelfPage[layerCache]), "us", np)
		put("cluster.node_get_imbalance", ratio(maxGets, sumGets/float64(len(a.nodeGets))), "ratio", int(sumGets))
	}
	put("cluster.failover_reads", float64(a.replica.FailoverReads-b.replica.FailoverReads), "count", 1)
	put("cluster.read_repairs", float64(a.replica.ReadRepairs-b.replica.ReadRepairs), "count", 1)

	if len(st.pools) > 0 {
		rtt := durs(layerNode, opGet, opGets, opSet, opAdd, opCas, opDelete, opIncr, opBatch)
		srv := a.server.Sub(b.server)
		put("cacheproto.rtt_p50_us", us(quantile(rtt, 0.5)), "us", len(rtt))
		put("cacheproto.rtt_p99_us", us(quantile(rtt, 0.99)), "us", len(rtt))
		put("cacheproto.server_p50_us", us(srv.Quantile(0.5)), "us", int(srv.Count))
		put("cacheproto.wire_us_per_page", perPage(ts.SelfPage[layerNode]+ts.SelfBackground[layerNode]), "us", np)
	}
	put("cacheproto.pool_waits", float64(a.poolWaits-b.poolWaits), "count", 1)
	put("cacheproto.errors", float64(a.poolErrors-b.poolErrors), "count", 1)

	enq := float64(a.inv.Enqueued - b.inv.Enqueued)
	put("invbus.published_per_page", enq/pages, "count", np)
	put("invbus.coalesced_frac", ratio(float64(a.inv.Coalesced-b.inv.Coalesced), enq), "fraction", int(enq))
	put("invbus.batch_ops_mean", ratio(float64(a.inv.Applied-b.inv.Applied), float64(a.inv.Flushes-b.inv.Flushes)), "count", int(a.inv.Flushes-b.inv.Flushes))
	put("invbus.stalls", float64(a.inv.QueueFullStalls-b.inv.QueueFullStalls), "count", 1)
	put("invbus.drain_ms", float64(ph.Drain.Nanoseconds())/1e6, "ms", 1)

	qs, ex := durs(layerSQL, opQuery), durs(layerSQL, opExec)
	put("sqldb.selects_per_page", float64(a.queries-b.queries)/pages, "count", np)
	put("sqldb.writes_per_page", execs/pages, "count", np)
	put("sqldb.query_p50_us", us(quantile(qs, 0.5)), "us", len(qs))
	put("sqldb.query_p99_us", us(quantile(qs, 0.99)), "us", len(qs))
	put("sqldb.exec_p50_us", us(quantile(ex, 0.5)), "us", len(ex))
	put("sqldb.exec_p99_us", us(quantile(ex, 0.99)), "us", len(ex))
	put("sqldb.self_us_per_page", perPage(ts.SelfPage[layerSQL]), "us", np)
	put("sqldb.triggers_per_write", ratio(float64(a.db.TriggersFired-b.db.TriggersFired), execs), "count", int(execs))
	put("sqldb.aborts", float64(a.db.TxnsAborted-b.db.TxnsAborted), "count", 1)
	put("sqldb.lock_timeouts", float64(a.lockTimeouts-b.lockTimeouts), "count", 1)

	ph2, pm := a.bp.Hits-b.bp.Hits, a.bp.Misses-b.bp.Misses
	put("storage.pool_hit_ratio", ratio(float64(ph2), float64(ph2+pm)), "fraction", int(ph2+pm))
	put("storage.evictions_per_page", float64(a.bp.Evictions-b.bp.Evictions)/pages, "count", np)

	if st.w.Durable {
		fs := a.walFsync.Sub(b.walFsync)
		commits := float64(a.walCommits - b.walCommits)
		put("wal.commits_per_fsync", ratio(commits, float64(fs.Count)), "count", int(fs.Count))
		put("wal.fsync_p50_us", us(fs.Quantile(0.5)), "us", int(fs.Count))
		put("wal.bytes_per_commit", ratio(float64(a.walBytes-b.walBytes), commits), "bytes", int(commits))
	}

	put("go.alloc_bytes_per_page", float64(a.allocBytes-b.allocBytes)/pages, "bytes", np)
	put("go.gc_cycles_per_kpage", float64(a.gcCycles-b.gcCycles)/pages*1000, "count", np)
	put("go.gc_cpu_frac", ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU), "fraction", 1)

	put("stale_frac", au.frac(), "fraction", au.Keys)
	put("failed_frac", ratio(float64(ph.Failed), pages), "fraction", np)
	put("trace.page_us", us(ts.PageNs)/float64(max(ts.Pages, 1)), "us", ts.Pages)
	put("trace.unattributed_us_per_page", us(ts.SelfPage[layerPage])/float64(max(ts.Pages, 1)), "us", ts.Pages)
	put("trace.spans", float64(ts.Spans), "count", ts.Spans)
	return m
}
