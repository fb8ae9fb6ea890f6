package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/cluster"
	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/obs"
	"cachegenie/internal/orm"
	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
)

// stack is one assembled system under test, built from the packages'
// public constructors with the benchmark's wrappers at each layer boundary.
// The latency model is off everywhere: every constructor gets the zero
// latency.Model.
type stack struct {
	w       workload
	p       *probes
	dataDir string // durable WAL directory, removed by close

	db      *sqldb.DB
	conn    *conn
	reg     *orm.Registry
	genie   *core.Genie
	icpt    *interceptor
	app     *social.App
	logical *cache // what the Genie receives
	ring    *cluster.Manager
	stores  []*kvcache.Store
	servers []*cacheproto.Server
	pools   []*cacheproto.Pool
	obs     *obs.Registry
}

// buildStack assembles and seeds the workload's stack. dataSeed drives the
// seeded dataset; the stack receives only the generated rows. The dataset
// is seeded before caching is declared, so seeding costs no trigger work
// and leaves the cache empty, as seeding through the triggers would (they
// skip absent keys). A durable database is seeded with fsync off and then
// reopened from its snapshot with fsync on, the configuration measured.
func buildStack(w workload, dataSeed int64) (*stack, error) {
	st := &stack{w: w, p: &probes{}, obs: obs.NewRegistry()}
	if err := st.openDB(dataSeed); err != nil {
		st.close()
		return nil, err
	}
	if err := st.buildCache(); err != nil {
		st.close()
		return nil, err
	}
	g, err := core.New(core.Config{
		Registry:          st.reg,
		DB:                st.db,
		Cache:             st.logical,
		AsyncInvalidation: w.Async,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.genie = g
	st.app.Genie = g
	st.icpt = &interceptor{inner: g, p: st.p}
	st.reg.SetInterceptor(st.icpt)
	for _, spec := range social.CachedObjectSpecs(w.strategy()) {
		co, err := g.Cacheable(spec)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("declaring %s: %w", spec.Name, err)
		}
		st.app.Objects[spec.Name] = co
	}
	if err := st.wrapTriggers(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// openDB opens the database, creates the schema and seeds it, leaving
// st.db, st.conn, st.reg and st.app (without caching) in place.
func (st *stack) openDB(dataSeed int64) error {
	cfg := sqldb.Config{LockTimeout: 10 * time.Second}
	seedDB := func(db *sqldb.DB, reg *orm.Registry) (*social.App, error) {
		if err := social.RegisterModels(reg); err != nil {
			return nil, err
		}
		if err := reg.CreateTables(); err != nil {
			return nil, err
		}
		app, err := social.NewApp(reg, nil, st.w.strategy())
		if err != nil {
			return nil, err
		}
		seed := social.DefaultSeed()
		seed.Users = st.w.Users
		if err := app.Seed(seed, rand.New(rand.NewSource(dataSeed))); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
		return app, nil
	}
	if !st.w.Durable {
		db, err := sqldb.Open(cfg)
		if err != nil {
			return fmt.Errorf("open db: %w", err)
		}
		st.db = db
		st.conn = &conn{db: db, p: st.p}
		st.reg = orm.NewRegistry(st.conn)
		st.app, err = seedDB(db, st.reg)
		return err
	}
	dir, err := os.MkdirTemp("", "pagebench-wal-")
	if err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	st.dataDir = dir
	cfg.DataDir = dir
	nosync := cfg
	nosync.WALNoSync = true
	db, err := sqldb.Open(nosync)
	if err != nil {
		return fmt.Errorf("open db for seeding: %w", err)
	}
	_, err = seedDB(db, orm.NewRegistry(db))
	if cerr := db.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("snapshot seeded db: %w", cerr)
	}
	if err != nil {
		return err
	}
	if st.db, err = sqldb.Open(cfg); err != nil {
		return fmt.Errorf("reopen db: %w", err)
	}
	st.db.RegisterMetrics(st.obs)
	st.conn = &conn{db: st.db, p: st.p}
	st.reg = orm.NewRegistry(st.conn)
	if err := social.RegisterModels(st.reg); err != nil {
		return err
	}
	if st.app, err = social.NewApp(st.reg, nil, st.w.strategy()); err != nil {
		return err
	}
	st.app.NumUsers = st.w.Users
	return nil
}

// buildCache assembles the cache tier and st.logical, the wrapped logical
// cache the Genie receives.
func (st *stack) buildCache() error {
	w := st.w
	perNode := w.CacheBytes
	if w.CacheNodes > 1 && perNode > 0 {
		perNode /= int64(w.CacheNodes)
	}
	var nodes []kvcache.Cache
	var ids []string
	for i := 0; i < w.CacheNodes; i++ {
		store := kvcache.New(perNode)
		st.stores = append(st.stores, store)
		if !w.TCP {
			nodes = append(nodes, store)
			ids = append(ids, fmt.Sprintf("node-%d", i))
			continue
		}
		srv := cacheproto.NewServer(store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("cache node %d: %w", i, err)
		}
		st.servers = append(st.servers, srv)
		pool := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{Addr: addr})
		pool.RegisterMetrics(st.obs, addr)
		st.pools = append(st.pools, pool)
		nodes = append(nodes, newCache(pool, st.p, layerNode))
		ids = append(ids, addr)
	}
	var logical kvcache.Cache = nodes[0]
	if len(nodes) > 1 {
		ring, err := cluster.NewManager(ids, nodes, cluster.WithReplicas(w.Replicas))
		if err != nil {
			return err
		}
		st.ring = ring
		logical = ring
	}
	st.logical = newCache(logical, st.p, layerCache)
	return nil
}

// wrapTriggers reinstalls every generated trigger with its body wrapped in
// a core span, keeping each table's per-op firing order.
func (st *stack) wrapTriggers() error {
	for _, table := range st.db.Tables() {
		var all []sqldb.Trigger
		for _, op := range []sqldb.TriggerOp{sqldb.TrigInsert, sqldb.TrigUpdate, sqldb.TrigDelete} {
			for _, tr := range st.db.Triggers(table, op) {
				all = append(all, *tr)
			}
		}
		for _, tr := range all {
			st.db.DropTrigger(table, tr.Name)
		}
		for _, tr := range all {
			tr.Fn = wrapTrigger(tr.Fn, st.p)
			if err := st.db.CreateTrigger(tr); err != nil {
				return fmt.Errorf("reinstall trigger %s: %w", tr.Name, err)
			}
		}
	}
	return nil
}

// close stops every goroutine and socket the stack owns and removes the
// durable data directory.
func (st *stack) close() {
	if st.genie != nil {
		st.genie.Close()
	}
	for _, p := range st.pools {
		_ = p.Close()
	}
	for _, s := range st.servers {
		_ = s.Close()
	}
	if st.db != nil {
		// A clean close drains the WAL writer; its snapshot error does not
		// matter for a directory removed next.
		_ = st.db.Close()
	}
	if st.dataDir != "" {
		_ = os.RemoveAll(st.dataDir)
	}
}

// storeStats sums the counters of every cache node's store.
func (st *stack) storeStats() kvcache.Stats {
	var agg kvcache.Stats
	for _, s := range st.stores {
		x := s.Stats()
		agg.Hits += x.Hits
		agg.Misses += x.Misses
		agg.Evictions += x.Evictions
		agg.BytesUsed += x.BytesUsed
	}
	return agg
}
