package main

import (
	"errors"
	"sync/atomic"
	"time"

	"cachegenie/internal/cluster"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// probes hands the tracer of a traced trial (nil otherwise) to every
// wrapper of one stack. The wrappers count their calls in both kinds of
// trial — one atomic add per call — so an untraced trial takes the same
// code paths as a traced one and reports the same count metrics.
type probes struct {
	tr atomic.Pointer[tracer]
}

func (p *probes) begin(ly layer, op uint8) (*tracer, *lane, int32) {
	t := p.tr.Load()
	if t == nil {
		return nil, nil, 0
	}
	l, i := t.begin(ly, op)
	return t, l, i
}

func endSpan(t *tracer, l *lane, i int32) {
	if t != nil {
		t.end(l, i)
	}
}

// conn wraps *sqldb.DB as the orm.Conn that both the ORM and the Genie's
// miss path send SQL through. Statements fired inside triggers run on the
// trigger's transaction and do not pass here.
type conn struct {
	db           *sqldb.DB
	p            *probes
	queries      atomic.Int64
	execs        atomic.Int64
	lockTimeouts atomic.Int64
}

var _ orm.Conn = (*conn)(nil)

func (c *conn) Exec(sql string, args ...sqldb.Value) (sqldb.Result, error) {
	c.execs.Add(1)
	t, l, i := c.p.begin(layerSQL, opExec)
	res, err := c.db.Exec(sql, args...)
	endSpan(t, l, i)
	c.noteErr(err)
	return res, err
}

func (c *conn) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	c.queries.Add(1)
	t, l, i := c.p.begin(layerSQL, opQuery)
	rs, err := c.db.Query(sql, args...)
	endSpan(t, l, i)
	c.noteErr(err)
	return rs, err
}

func (c *conn) noteErr(err error) {
	if err != nil && errors.Is(err, sqldb.ErrLockTimeout) {
		c.lockTimeouts.Add(1)
	}
}

// interceptor wraps the Genie as the registry's orm.Interceptor. Every ORM
// read offered to the Genie is a lookup, whether it answers it (from the
// cache, or from the database while populating) or lets it through to the
// database.
type interceptor struct {
	inner   orm.Interceptor
	p       *probes
	lookups atomic.Int64
}

var _ orm.Interceptor = (*interceptor)(nil)

func (w *interceptor) InterceptRows(d *orm.QueryDescriptor) ([]sqldb.Row, bool, error) {
	w.lookups.Add(1)
	t, l, i := w.p.begin(layerCore, opLookupRows)
	rows, handled, err := w.inner.InterceptRows(d)
	endSpan(t, l, i)
	return rows, handled, err
}

func (w *interceptor) InterceptCount(d *orm.QueryDescriptor) (int64, bool, error) {
	w.lookups.Add(1)
	t, l, i := w.p.begin(layerCore, opLookupCount)
	n, handled, err := w.inner.InterceptCount(d)
	endSpan(t, l, i)
	return n, handled, err
}

// wrapTrigger times a generated trigger body as core work.
func wrapTrigger(fn sqldb.TriggerFunc, p *probes) sqldb.TriggerFunc {
	return func(q sqldb.Queryer, ev sqldb.TriggerEvent) error {
		t, l, i := p.begin(layerCore, opTrigger)
		err := fn(q, ev)
		endSpan(t, l, i)
		return err
	}
}

// cache wraps a kvcache.Cache: the logical cache the Genie receives
// (layerCache) or one node's client pool (layerNode). It forwards every
// optional interface the stack probes for — kvcache.BatchApplier,
// cluster.HealthReporter, cluster.ReplicaStatsReporter and Unwrap — so a
// wrapped stack takes the same code paths as a bare one.
type cache struct {
	inner    kvcache.Cache
	p        *probes
	layer    layer
	ops      atomic.Int64 // single-key calls plus the ops inside batches
	batches  atomic.Int64
	batchOps atomic.Int64
}

var (
	_ kvcache.Cache                = (*cache)(nil)
	_ kvcache.BatchApplier         = (*cache)(nil)
	_ cluster.HealthReporter       = (*cache)(nil)
	_ cluster.ReplicaStatsReporter = (*cache)(nil)
)

func newCache(inner kvcache.Cache, p *probes, ly layer) *cache {
	return &cache{inner: inner, p: p, layer: ly}
}

// Unwrap returns the wrapped cache.
func (w *cache) Unwrap() kvcache.Cache { return w.inner }

// Healthy forwards cluster.HealthReporter; a cache without one counts as
// healthy, which is what the ring assumes for it unwrapped.
func (w *cache) Healthy() bool {
	if hr, ok := w.inner.(cluster.HealthReporter); ok {
		return hr.Healthy()
	}
	return true
}

// ReplicaStats forwards cluster.ReplicaStatsReporter through any chain of
// Unwrap-able decorators, as core.Genie.ReplicaStats does.
func (w *cache) ReplicaStats() cluster.ReplicaStats {
	c := w.inner
	for {
		if rs, ok := c.(cluster.ReplicaStatsReporter); ok {
			return rs.ReplicaStats()
		}
		u, ok := c.(interface{ Unwrap() kvcache.Cache })
		if !ok {
			return cluster.ReplicaStats{}
		}
		c = u.Unwrap()
	}
}

// ApplyBatch forwards kvcache.BatchApplier: the inner cache's native batch
// entry point when it has one, per-op calls otherwise — what
// kvcache.ApplyBatchOn would do with the inner cache directly.
func (w *cache) ApplyBatch(ops []kvcache.BatchOp) []kvcache.BatchResult {
	w.ops.Add(int64(len(ops)))
	w.batches.Add(1)
	w.batchOps.Add(int64(len(ops)))
	t, l, i := w.p.begin(w.layer, opBatch)
	res := kvcache.ApplyBatchOn(w.inner, ops)
	endSpan(t, l, i)
	return res
}

func (w *cache) Get(key string) ([]byte, bool) {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opGet)
	v, ok := w.inner.Get(key)
	endSpan(t, l, i)
	return v, ok
}

func (w *cache) Gets(key string) ([]byte, uint64, bool) {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opGets)
	v, cas, ok := w.inner.Gets(key)
	endSpan(t, l, i)
	return v, cas, ok
}

func (w *cache) Set(key string, value []byte, ttl time.Duration) {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opSet)
	w.inner.Set(key, value, ttl)
	endSpan(t, l, i)
}

func (w *cache) Add(key string, value []byte, ttl time.Duration) bool {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opAdd)
	ok := w.inner.Add(key, value, ttl)
	endSpan(t, l, i)
	return ok
}

func (w *cache) Cas(key string, value []byte, ttl time.Duration, cas uint64) kvcache.CasResult {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opCas)
	r := w.inner.Cas(key, value, ttl, cas)
	endSpan(t, l, i)
	return r
}

func (w *cache) Delete(key string) bool {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opDelete)
	ok := w.inner.Delete(key)
	endSpan(t, l, i)
	return ok
}

func (w *cache) Incr(key string, delta int64) (int64, bool) {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opIncr)
	n, ok := w.inner.Incr(key, delta)
	endSpan(t, l, i)
	return n, ok
}

func (w *cache) FlushAll() {
	w.ops.Add(1)
	t, l, i := w.p.begin(w.layer, opFlush)
	w.inner.FlushAll()
	endSpan(t, l, i)
}
