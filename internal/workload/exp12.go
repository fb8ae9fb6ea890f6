// Experiment 12: crash recovery and recovery-epoch cache invalidation.
//
// The drill: a write-heavy run over the drill schema (cache-maintenance
// triggers mirroring every row into the cache) is killed mid-flight — the
// database dies with acknowledged group-committed transactions in the WAL
// and with open transactions whose trigger effects have already reached the
// cache. On restart, recovery must restore exactly the committed prefix
// (zero lost acknowledged writes, zero resurrected uncommitted writes), and
// the recovery-epoch bump must flush the cache tier so stranded trigger
// effects of discarded transactions cannot be served.
//
// The in-process form (`genieload -experiment exp12`) runs the whole
// timeline in one process against a temp data directory, using DB.Crash to
// stand in for SIGKILL, and sweeps the committed-transaction count to
// measure recovery wall clock against log length. The external form splits
// into `-exp12-phase load` (drive a real geniedb over dbproto until the
// driver kills it) and `-exp12-phase verify` (after restart, audit the
// recovered database and the real cache tier against the load phase's
// acknowledgement journal) — CI's crash-drill job wires these around a real
// kill -9.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/dbproto"
	"cachegenie/internal/kvcache"
	"cachegenie/internal/sqldb"
)

// exp12DoomedVal prefixes values written by transactions that are
// deliberately never committed; recovery must not resurrect any row whose
// val carries it.
const exp12DoomedVal = "doomed"

// Exp12Point is one crash/recover cycle's outcome.
type Exp12Point struct {
	TargetTxns             int     `json:"target_txns"`
	AckedWrites            int     `json:"acked_writes"`
	DoomedTxns             int     `json:"doomed_txns"`
	ReplayedTxns           int     `json:"replayed_txns"`
	ReplayedRecords        int     `json:"replayed_records"`
	UncommittedTxns        int     `json:"uncommitted_txns"`
	RecoveryMs             float64 `json:"recovery_ms"`
	EpochBefore            uint64  `json:"epoch_before"`
	EpochAfter             uint64  `json:"epoch_after"`
	LostCommitted          int     `json:"lost_committed"`
	ResurrectedUncommitted int     `json:"resurrected_uncommitted"`
	ViolationsNoFlush      int     `json:"violations_no_flush"`
	ViolationsWithFlush    int     `json:"violations_with_flush"`
}

// Exp12Result is the experiment's full output, and the BENCH_exp12.json
// document.
type Exp12Result struct {
	Experiment  string       `json:"experiment"`
	Description string       `json:"description"`
	Mode        string       `json:"mode"` // "inprocess" or "external"
	Points      []Exp12Point `json:"points"`
}

func newExp12Result(mode string) Exp12Result {
	return Exp12Result{
		Experiment: "exp12",
		Description: "Crash drill: write-heavy load killed mid-run; recovery must restore exactly " +
			"the committed prefix and the recovery-epoch bump must flush stranded cache state.",
		Mode: mode,
	}
}

// drillQuerier is the read access both the in-process DB and the dbproto
// client give the auditors.
type drillQuerier interface {
	Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error)
}

// DrillWrite is one acknowledged row in the load journal.
type DrillWrite struct {
	Table string `json:"table"`
	PK    int64  `json:"pk"`
	Val   string `json:"val"`
}

// Exp12State is the journal the load phase hands the verify phase across
// the crash.
type Exp12State struct {
	EpochAtLoad uint64       `json:"epoch_at_load"`
	Acked       []DrillWrite `json:"acked"`
	DoomedTxns  int          `json:"doomed_txns"`
}

// drillRowVal fetches table/pk's val column; ok=false when the row is gone.
func drillRowVal(q drillQuerier, table string, pk int64) (string, bool, error) {
	rs, err := q.Query(fmt.Sprintf("SELECT val FROM %s WHERE id = $1", table), sqldb.I64(pk))
	if err != nil {
		return "", false, err
	}
	if len(rs.Rows) == 0 {
		return "", false, nil
	}
	return rs.Rows[0][0].S, true, nil
}

// countLostCommitted returns how many acknowledged writes the recovered
// database is missing (or holds with the wrong value). Durability demands 0.
func countLostCommitted(q drillQuerier, acked []DrillWrite) (int, error) {
	lost := 0
	for _, w := range acked {
		val, ok, err := drillRowVal(q, w.Table, w.PK)
		if err != nil {
			return 0, err
		}
		if !ok || val != w.Val {
			lost++
		}
	}
	return lost, nil
}

// countResurrected returns how many rows from never-committed transactions
// the recovered database serves. Atomicity demands 0.
func countResurrected(q drillQuerier) (int, error) {
	res := 0
	for i := 0; i < DrillTables; i++ {
		rs, err := q.Query(fmt.Sprintf("SELECT val FROM %s", DrillTableName(i)))
		if err != nil {
			return 0, err
		}
		for _, row := range rs.Rows {
			if strings.HasPrefix(row[0].S, exp12DoomedVal) {
				res++
			}
		}
	}
	return res, nil
}

// countCacheViolations audits the cache tier against the recovered
// database: a drill key whose row is gone (a discarded transaction's
// trigger effect) or whose value disagrees is a consistency violation.
func countCacheViolations(q drillQuerier, keys []string, get func(string) ([]byte, bool)) (int, error) {
	violations := 0
	for _, key := range keys {
		table, pk, ok := ParseDrillKey(key)
		if !ok {
			continue
		}
		cval, ok := get(key)
		if !ok {
			continue // evicted/flushed between listing and read
		}
		dval, ok, err := drillRowVal(q, table, pk)
		if err != nil {
			return 0, err
		}
		if !ok || dval != string(cval) {
			violations++
		}
	}
	return violations, nil
}

func drillKeys(keys []string) []string {
	out := keys[:0:0]
	for _, k := range keys {
		if strings.HasPrefix(k, DrillKeyPrefix) {
			out = append(out, k)
		}
	}
	return out
}

// exp12Cycle runs one in-process load/crash/recover/audit cycle.
func exp12Cycle(opt ExpOptions, target int) (Exp12Point, error) {
	var p Exp12Point
	p.TargetTxns = target

	dir, err := os.MkdirTemp("", "exp12-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	cfg := sqldb.Config{DataDir: dir, BufferPoolPages: 2048}
	db, err := sqldb.Open(cfg)
	if err != nil {
		return p, err
	}
	p.EpochBefore = db.Epoch()
	cache := kvcache.New(0)
	if err := InstallDrillSchema(db, cache); err != nil {
		return p, err
	}

	// Write-heavy load: concurrent committers across the drill tables so
	// the group-commit writer actually batches fsyncs. Every acknowledged
	// insert goes in the journal; the database owes us those rows forever.
	const writers = 8
	var (
		committed atomic.Int64
		mu        sync.Mutex
		acked     []DrillWrite
		wg        sync.WaitGroup
		werr      atomic.Value
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000*target + w)))
			for seq := 0; committed.Add(1) <= int64(target); seq++ {
				table := DrillTableName(rng.Intn(DrillTables))
				val := fmt.Sprintf("w%d-%d", w, seq)
				res, err := db.Exec(fmt.Sprintf("INSERT INTO %s (val) VALUES ($1)", table), sqldb.Str(val))
				if err != nil {
					werr.Store(err)
					return
				}
				mu.Lock()
				acked = append(acked, DrillWrite{Table: table, PK: res.LastInsertID, Val: val})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		return p, fmt.Errorf("exp12: load: %w", err)
	}
	p.AckedWrites = len(acked)

	// Open transactions that will never commit: their triggers have
	// already pushed values into the cache — the stranded state the epoch
	// flush exists to clean up. One per table: a second open transaction
	// on the same table would block on its exclusive lock.
	const doomed = DrillTables
	for i := 0; i < doomed; i++ {
		tx := db.Begin()
		table := DrillTableName(i)
		if _, err := tx.Exec(fmt.Sprintf("INSERT INTO %s (val) VALUES ($1)", table),
			sqldb.Str(fmt.Sprintf("%s-%d", exp12DoomedVal, i))); err != nil {
			return p, fmt.Errorf("exp12: doomed txn: %w", err)
		}
		// Deliberately neither committed nor rolled back: Crash takes the
		// process down with the transaction open.
	}
	p.DoomedTxns = doomed

	db.Crash() // SIGKILL stand-in: no snapshot, no WAL drain

	db2, err := sqldb.Open(cfg)
	if err != nil {
		return p, fmt.Errorf("exp12: reopen: %w", err)
	}
	defer db2.Close()
	rec := db2.Recovery()
	p.ReplayedTxns = rec.ReplayedTxns
	p.ReplayedRecords = rec.ReplayedRecords
	p.UncommittedTxns = rec.UncommittedTxns
	p.RecoveryMs = float64(rec.DurationNanos) / 1e6
	p.EpochAfter = db2.Epoch()

	if p.LostCommitted, err = countLostCommitted(db2, acked); err != nil {
		return p, err
	}
	if p.ResurrectedUncommitted, err = countResurrected(db2); err != nil {
		return p, err
	}
	keys := drillKeys(cache.Keys())
	if p.ViolationsNoFlush, err = countCacheViolations(db2, keys, cache.Get); err != nil {
		return p, err
	}
	// The stack's reaction: epoch advanced, flush the tier.
	guard := NewEpochGuard(p.EpochBefore, cache.FlushAll)
	guard.Observe(db2.Epoch())
	if p.ViolationsWithFlush, err = countCacheViolations(db2, drillKeys(cache.Keys()), cache.Get); err != nil {
		return p, err
	}
	return p, nil
}

// Exp12 runs the in-process crash drill across a sweep of committed-
// transaction counts, measuring recovery wall clock against log length and
// auditing durability, atomicity and cache consistency at each point.
func Exp12(opt ExpOptions) (Exp12Result, error) {
	targets := []int{250, 1000, 4000}
	if opt.Quick {
		targets = []int{100, 400}
	}
	res := newExp12Result("inprocess")
	for _, target := range targets {
		p, err := exp12Cycle(opt, target)
		if err != nil {
			return res, err
		}
		opt.logf("exp12: %d txns committed, %d wal records replayed in %.1fms; "+
			"epoch %d->%d; lost=%d resurrected=%d violations: %d before flush, %d after",
			p.AckedWrites, p.ReplayedRecords, p.RecoveryMs, p.EpochBefore, p.EpochAfter,
			p.LostCommitted, p.ResurrectedUncommitted, p.ViolationsNoFlush, p.ViolationsWithFlush)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Exp12Load is the external drill's load phase: drive a real geniedb over
// dbproto with concurrent autocommit inserts plus a few deliberately
// never-committed transactions, journaling every acknowledged write to
// statePath. The driver is expected to SIGKILL the database mid-run;
// writers stop on the first connection error and that is success, not
// failure — the journal is what the verify phase audits after restart.
func Exp12Load(dbAddr, statePath string, writers int, d time.Duration, logf func(string, ...any)) error {
	if writers <= 0 {
		writers = 8
	}
	probe, err := dbproto.Dial(dbAddr)
	if err != nil {
		return fmt.Errorf("exp12 load: %w", err)
	}
	epoch, err := probe.Epoch()
	if err != nil {
		return fmt.Errorf("exp12 load: epoch: %w", err)
	}
	defer probe.Close()

	// One doomed transaction, opened first so its trigger effect is in the
	// cache well before the kill lands. It holds the last drill table's
	// exclusive lock until the database dies, so that table is reserved
	// for it — the committing writers spread over the others.
	const doomed = 1
	doomedTable := DrillTableName(DrillTables - 1)
	{
		c, err := dbproto.Dial(dbAddr)
		if err != nil {
			return fmt.Errorf("exp12 load: %w", err)
		}
		defer c.Close()
		if err := c.Begin(); err != nil {
			return fmt.Errorf("exp12 load: %w", err)
		}
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO %s (val) VALUES ($1)", doomedTable),
			sqldb.Str(exp12DoomedVal+"-ext")); err != nil {
			return fmt.Errorf("exp12 load: doomed insert: %w", err)
		}
		// Held open, never committed; the kill (or our exit) discards it.
	}

	var (
		mu    sync.Mutex
		acked []DrillWrite
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for w := 0; w < writers; w++ {
		c, err := dbproto.Dial(dbAddr)
		if err != nil {
			return fmt.Errorf("exp12 load: %w", err)
		}
		wg.Add(1)
		go func(w int, c *dbproto.Client) {
			defer wg.Done()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for seq := 0; time.Now().Before(deadline); seq++ {
				table := DrillTableName(rng.Intn(DrillTables - 1))
				val := fmt.Sprintf("w%d-%d", w, seq)
				res, err := c.Exec(fmt.Sprintf("INSERT INTO %s (val) VALUES ($1)", table), sqldb.Str(val))
				if err != nil {
					return // database died under us — the drill's whole point
				}
				mu.Lock()
				acked = append(acked, DrillWrite{Table: table, PK: res.LastInsertID, Val: val})
				mu.Unlock()
			}
		}(w, c)
	}
	wg.Wait()
	if len(acked) == 0 {
		return errors.New("exp12 load: no writes were acknowledged — drill never got going")
	}
	logf("exp12 load: %d acknowledged writes, %d doomed txns, epoch %d", len(acked), doomed, epoch)
	data, err := json.MarshalIndent(Exp12State{EpochAtLoad: epoch, Acked: acked, DoomedTxns: doomed}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(statePath, append(data, '\n'), 0o644)
}

// Exp12Verify is the external drill's audit phase, run against the
// restarted geniedb and the live cache tier.
func Exp12Verify(dbAddr string, cacheAddrs []string, statePath string, logf func(string, ...any)) (Exp12Result, error) {
	res := newExp12Result("external")
	data, err := os.ReadFile(statePath)
	if err != nil {
		return res, fmt.Errorf("exp12 verify: %w", err)
	}
	var state Exp12State
	if err := json.Unmarshal(data, &state); err != nil {
		return res, fmt.Errorf("exp12 verify: state: %w", err)
	}
	c, err := dbproto.Dial(dbAddr)
	if err != nil {
		return res, fmt.Errorf("exp12 verify: %w", err)
	}
	defer c.Close()

	var p Exp12Point
	p.AckedWrites = len(state.Acked)
	p.DoomedTxns = state.DoomedTxns
	p.EpochBefore = state.EpochAtLoad
	if p.EpochAfter, err = c.Epoch(); err != nil {
		return res, err
	}
	rec, err := c.Recovery()
	if err != nil {
		return res, err
	}
	p.ReplayedTxns = rec.ReplayedTxns
	p.ReplayedRecords = rec.ReplayedRecords
	p.UncommittedTxns = rec.UncommittedTxns
	p.RecoveryMs = float64(rec.DurationNanos) / 1e6

	if p.LostCommitted, err = countLostCommitted(c, state.Acked); err != nil {
		return res, err
	}
	if p.ResurrectedUncommitted, err = countResurrected(c); err != nil {
		return res, err
	}

	pools := make([]*cacheproto.Pool, len(cacheAddrs))
	for i, addr := range cacheAddrs {
		pools[i] = cacheproto.NewPool(addr, 2)
		defer pools[i].Close()
	}
	var keys []string
	for _, pool := range pools {
		ks, err := pool.Keys()
		if err != nil {
			return res, fmt.Errorf("exp12 verify: cache keys from %s: %w", pool.Addr(), err)
		}
		keys = append(keys, drillKeys(ks)...)
	}
	get := func(key string) ([]byte, bool) {
		for _, pool := range pools {
			if v, ok := pool.Get(key); ok {
				return v, true
			}
		}
		return nil, false
	}
	if p.ViolationsNoFlush, err = countCacheViolations(c, keys, get); err != nil {
		return res, err
	}

	// The stack's reaction to the epoch bump: flush the whole tier.
	guard := NewEpochGuard(state.EpochAtLoad, func() {
		for _, pool := range pools {
			pool.FlushAll()
		}
	})
	flushed := guard.Observe(p.EpochAfter)
	keys = keys[:0]
	for _, pool := range pools {
		ks, err := pool.Keys()
		if err != nil {
			return res, err
		}
		keys = append(keys, drillKeys(ks)...)
	}
	if p.ViolationsWithFlush, err = countCacheViolations(c, keys, get); err != nil {
		return res, err
	}
	logf("exp12 verify: epoch %d->%d (flushed=%v), %d replayed txns in %.1fms; "+
		"lost=%d resurrected=%d violations: %d before flush, %d after",
		p.EpochBefore, p.EpochAfter, flushed, p.ReplayedTxns, p.RecoveryMs,
		p.LostCommitted, p.ResurrectedUncommitted, p.ViolationsNoFlush, p.ViolationsWithFlush)
	res.Points = append(res.Points, p)
	return res, nil
}
