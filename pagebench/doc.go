// Command pagebench is the repository's benchmark. It serves the paper's §5
// page mix through social.App.RunPage against a full stack — ORM, CacheGenie
// middleware (core), cache tier (kvcache, optionally behind a cluster ring
// of loopback cacheproto nodes), invalidation bus (invbus) and database
// (sqldb, optionally with its WAL) — and reports what a user of that stack
// sees per page, then, in a traced run, where each page's time goes.
//
// Run it from the repository root:
//
//	bash pagebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the command from source into .bench_build/ and runs it. A
// run repeats trials while another one fits in --seconds (at least one; a
// traced run repeats pairs of an untraced and a traced trial). A trial
// builds a fresh stack, seeds it, warms it up without recording, serves a
// fixed number of page loads from a closed loop of two client goroutines
// with no think time, drains the invalidation bus, audits the cache and
// tears the stack down. Every trial seeds the same dataset; --seed and the
// trial number draw the traffic (the users of the sessions and their
// pages), so the same seed gives the same inputs. The run reports the
// median of each metric over its trials, so one slow trial does not move
// it. A trial during which the hypervisor gave more than 1% of the
// machine's CPU time to other guests (steal time, from /proc/stat) is
// marked disturbed and left out of the medians, unless every trial of the
// run was: on a shared 2-vCPU virtual machine, write-durable trials with
// 10–26% steal served 2.5–3.4k pages/s against 5.3–6.1k for trials with
// none, so such a trial measures the neighbours, not the program.
//
// Every metric is printed by name with its unit and sample count; the last
// line of standard output is one JSON object with the reported metrics, and
// the full result, with the environment (GOMAXPROCS, NumCPU, Go version,
// git commit), the seed, the page counts, each trial's steal time and the
// workload's whole stack configuration, goes to .bench_build/results/.
//
// # Workloads
//
// hot-read-tcp: two loopback cacheproto nodes behind a cluster ring with
// R=2, synchronous invalidation, update-in-place, a cache that holds the
// whole working set; 2000 users at the paper's zipf a=2.0 and 5% write
// pages. This is the paper's cached steady state on a real wire: the hit
// ratio is about 0.98 and there is about half an SQL statement per page, so
// core's hit path, the ring, the pool, loopback TCP and the server do most
// of the work. A cache-path or wire change shows here; a database change
// should not.
//
// write-durable: a durable sqldb (WAL in a temporary directory, fsync on
// every group commit, the default group size), the asynchronous
// invalidation bus, one in-process unbounded kvcache node, update-in-place;
// 2000 users, a=2.0, 50% write pages. sqldb's write path, table locks,
// trigger maintenance, bus batching and WAL group commit do most of the
// work; the cache is reached mostly through trigger CAS updates and bus
// batches rather than reads, so a read-path gain that costs writes shows.
//
// small-cache: one in-process node capped at 400 KB (under a thousand
// resident entries against tens of thousands of keys touched), synchronous,
// Invalidate strategy; 4000 users at near-uniform popularity (a=5, rank
// exponent 0.25) and 5% write pages. The working set is far larger than the
// cache, so core's miss path (query, populate), sqldb's read path (parse,
// plan, index scan, row decode) and kvcache eviction do the work, with no
// wire, bus or WAL. It also covers the second consistency strategy.
//
// # Why the latency model is off
//
// Every stack is built with the zero latency.Model. An injected sleep costs
// what the OS timer gives, not its nominal value: on a 2-vCPU virtual machine, over
// 2000 calls each, time.Sleep(3µs) averaged 610 µs, 4µs averaged 658 µs and
// 60µs averaged 1.09 ms. A scaled-down paper model therefore measures the
// timer, not the program. The work the model would charge for is reported
// as counts instead: db_stmts_per_page (database round trips) and
// kvcache.ops_per_page (cache round trips).
//
// # Why runs are bounded by page count
//
// The workload's state grows: the hottest user at a=2.0 gets about 12% of
// sessions, and their bookmark and friend lists grow with every write page;
// every trigger update and cache hit re-encodes or decodes the whole list.
// The same in-process 80/20 mix ran at 17.0k pages/s over 1.2k pages but at
// 2.0–2.2k pages/s over 96k pages. A run bounded by time would let a faster
// build serve more pages and so carry more state; a trial here serves a
// fixed number of pages, so both sides of a comparison reach the same data
// size. --seconds only decides how many such trials a run repeats.
//
// # Metrics
//
// End-to-end (untraced trials): pages_per_s (page loads over the measured
// wall time, final bus drain included), read_p50_ms and read_p95_ms
// (LookupBM, LookupFBM), write_p50_ms and write_p95_ms (CreateBM, AcceptFR,
// Login, Logout), db_stmts_per_page (statements reaching sqldb from the ORM
// and the middleware), heap_mb (live heap after the run and a forced GC)
// and setup_s (seeding, cache declaration and the unrecorded warm-up).
// Latency percentiles are exact order statistics of every page's latency.
//
// The tail is reported at p95 because p99 is not repeatable on a small
// virtual machine: on hot-read-tcp about 1% of reads stall for 3.5–4.7 ms
// (a wake-up stall that also shows with the collector off), so a trial's
// read p99 lands either below or inside that cluster and read 1.0–4.2 ms
// for one dataset; over five runs of nine trials its spread between
// quartiles was 40% of its median, above any usable regression bound,
// while p95 stays clear of the cluster. read_p99_ms, read_p999_ms and
// their write counterparts are still printed on every run and written to
// the result file.
//
// failed_frac (page loads still failing after one lock-timeout retry) and
// stale_frac (see the audit) are printed on every run as well; they are
// reported as per-layer metrics because they are legitimately zero, which
// a relative regression bound cannot judge.
//
// Per-layer (traced trials), and the end-to-end metric each should move:
//
//   - core (interceptor wrapper, trigger bodies, Genie.Stats): lookups,
//     hit ratio, lookup latency, self time, refused populates, CAS retries,
//     trigger ops, top-K recomputes, audited keys. The hit path moves
//     read_p50_ms and pages_per_s on hot-read-tcp; the miss path moves
//     read_p95_ms and db_stmts_per_page on small-cache; trigger ops move
//     write_p50_ms on write-durable.
//   - kvcache (wrapper on the logical cache, Store.Stats): ops, get latency,
//     busy time, ops per batch, evictions, store hit ratio, bytes. Moves
//     read_p50_ms on hot-read-tcp; evictions move db_stmts_per_page on
//     small-cache.
//   - cluster (ring span minus node spans, ReplicaStats, per-node stores):
//     self time, node get imbalance, failover reads, read repairs. Moves
//     read_p95_ms on hot-read-tcp; absent elsewhere.
//   - cacheproto (pool wrappers, Pool.Stats, Server.Metrics): round-trip
//     and server latency, wire time, pool waits, errors. Moves read_p50_ms
//     and pages_per_s on hot-read-tcp; nothing on the other two.
//   - invbus (Genie.InvStats, the timed final drain): ops published,
//     coalesced fraction, ops per flush, stalls, drain time. Moves the write
//     latencies and pages_per_s on write-durable; idle elsewhere.
//   - sqldb (conn wrapper, DB.Stats): selects and writes per page, query
//     and exec latency, self time, triggers per write, aborts, lock
//     timeouts. Queries move read_p95_ms and pages_per_s on small-cache;
//     exec moves the write latencies on write-durable; little on
//     hot-read-tcp.
//   - storage (DB.BufferPool().Stats): pool hit ratio, evictions. Moves
//     read_p95_ms on small-cache.
//   - wal (DB.RegisterMetrics into the benchmark's registry): commits per
//     fsync, fsync latency, bytes per commit. Moves the write latencies on
//     write-durable; absent elsewhere.
//   - Go runtime (runtime/metrics around the measured phase): allocated
//     bytes per page, GC cycles per 1000 pages, GC CPU fraction. Moves
//     pages_per_s and both p95s everywhere.
//   - trace.overhead_frac, 1 − traced ÷ untraced pages_per_s, only sizes
//     the cost of tracing.
//
// Layer metrics that only exist on one workload's stack (the cluster and
// cacheproto latencies and self times, the wal figures) are printed and
// written to the result file where the layer exists, and are not among the
// metrics BENCHMARK.json requires of every workload.
//
// # Tracing, self time and the unattributed remainder
//
// A traced trial is a separate trial with the same inputs as its untraced
// twin. Every wrapped call records a span (layer, operation, start, end,
// parent, page) in memory; the spans are written to a gzip TSV at the end.
// Spans nest by caller on each goroutine (the recorder keys a lane by the
// goroutine's runtime descriptor). In the synchronous stacks every layer
// call of a page runs on its client goroutine; invalidation-bus workers,
// replica fan-out goroutines and the loopback servers run elsewhere, and
// their spans are roots of their own that belong to no page ("off-page").
//
// A span's self time is its duration minus the part its child spans cover.
// Per page, the self times of core, sqldb, the logical cache (named
// "kvcache" for an in-process node and "cluster" for the ring), cacheproto
// and the page span itself add up exactly to the traced run's mean page
// time. The page span's self time is the unattributed remainder: the
// application, the ORM and the load generator, outside every wrapped call.
// Trigger bodies run inside sqldb Exec and are counted as core; cache calls
// made by triggers are counted under the cache. cacheproto self time is the
// client side of the round trip, including the wait for the server, whose
// own time is cacheproto.server_p50_us; cluster self time includes waiting
// for the replica fan-out goroutines.
//
// # Staleness audit
//
// After each trial, its bus drain and outside the timed phase, the audit
// visits every key of the 14 cached objects present in any cache node,
// re-runs the object's QueryTemplate on the database and compares: row
// multisets for feature and link objects, the first K rows for top-K
// objects, the value for counts. Every node's copy is checked; a key is
// stale when any copy differs. The stale counts are printed per object.
// They are the paper's contract that readers never see stale data, and they
// are reported as measured, including the friend_bookmarks entries that
// currently differ from the database join under update-in-place.
package main
