package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cachegenie/internal/loadctl"
	"cachegenie/internal/obs"
)

// TestExp11CoordinatedMergeIdentity is the acceptance check: a coordinator
// plus two real workers over loopback TCP must produce merged aggregate
// quantiles identical to merging the per-worker histograms directly. Each
// worker's RunWorker return value is its locally built result — the
// pre-wire truth — so comparing the coordinator's merge against merging
// those directly proves the wire encoding and coordinator-side merge add
// zero drift.
func TestExp11CoordinatedMergeIdentity(t *testing.T) {
	addrs, teardown, err := exp11Tier(Exp11Nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()

	coord := loadctl.NewCoordinator(loadctl.CoordinatorConfig{
		JoinTimeout:    30 * time.Second,
		BarrierTimeout: 30 * time.Second,
		Logf:           t.Logf,
	})
	caddr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec := exp11Spec(ExpOptions{Quick: true}, 2)
	spec.CacheAddrs = addrs

	const workers = 2
	local := make([]loadctl.Result, workers)
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local[i], workerErrs[i] = loadctl.RunWorker(caddr,
				loadctl.WorkerConfig{ID: fmt.Sprintf("w%d", i)}, &TierLoad{})
		}(i)
	}
	m, err := coord.Run(spec, workers)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}

	// Merge the workers' local (never-serialized) histograms directly.
	var direct obs.HistSnapshot
	var wantOps, wantHits, wantMisses int64
	for _, r := range local {
		direct.Add(r.Hist)
		wantOps += r.Ops
		wantHits += r.Hits
		wantMisses += r.Misses
	}
	if m.Hist.Count == 0 {
		t.Fatal("merged histogram is empty")
	}
	if m.Hist.Count != direct.Count || m.Hist.Sum != direct.Sum || m.Hist.Max != direct.Max {
		t.Fatalf("merged header = (%d,%d,%d), direct = (%d,%d,%d)",
			m.Hist.Count, m.Hist.Sum, m.Hist.Max, direct.Count, direct.Sum, direct.Max)
	}
	for i := range direct.Buckets {
		if m.Hist.Buckets[i] != direct.Buckets[i] {
			t.Fatalf("bucket %d: merged %d, direct %d", i, m.Hist.Buckets[i], direct.Buckets[i])
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := m.Hist.Quantile(q), direct.Quantile(q); got != want {
			t.Errorf("q%.3f: merged %d, direct %d", q, got, want)
		}
	}
	if m.Ops != wantOps || m.Hits != wantHits || m.Misses != wantMisses {
		t.Errorf("merged counters = (%d,%d,%d), direct = (%d,%d,%d)",
			m.Ops, m.Hits, m.Misses, wantOps, wantHits, wantMisses)
	}

	p := exp11PointFromMerged(m)
	if p.Workers != workers || len(p.PerWorkerOpsPerSec) != workers {
		t.Errorf("point has workers=%d per_worker=%d, want %d", p.Workers, len(p.PerWorkerOpsPerSec), workers)
	}
	// Warmup seeded the whole keyspace, so measured reads should mostly hit.
	if p.HitRate < 0.9 {
		t.Errorf("hit rate %.3f, want > 0.9 (keyspace was seeded during warmup)", p.HitRate)
	}
}

func TestExp11QuickSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinated sweep runs ~1s of wall-clock load")
	}
	reg := obs.NewRegistry()
	res, err := Exp11(ExpOptions{Quick: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	counts := Exp11WorkerCounts(true)
	if len(res.Points) != len(counts) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(counts))
	}
	for i, p := range res.Points {
		if p.Workers != counts[i] {
			t.Errorf("point %d worker_count = %d, want %d", i, p.Workers, counts[i])
		}
		if p.Ops == 0 || p.AggOpsPerSec <= 0 {
			t.Errorf("point %d measured no load: %+v", i, p)
		}
		if p.AggOpsPerSec < p.BestWorkerOpsPerSec {
			t.Errorf("point %d aggregate %.0f below best single worker %.0f",
				i, p.AggOpsPerSec, p.BestWorkerOpsPerSec)
		}
	}
	if len(res.Metrics) == 0 || !strings.Contains(string(res.Metrics), "cachegenie_coordinated_op_latency_seconds") {
		t.Error("prometheus dump missing the coordinated latency series")
	}
}

func TestPreflightCacheAddrs(t *testing.T) {
	addrs, teardown, err := exp11Tier(1)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()

	if err := PreflightCacheAddrs(addrs, time.Second); err != nil {
		t.Errorf("preflight of a live node failed: %v", err)
	}
	if err := PreflightCacheAddrs(nil, time.Second); err == nil {
		t.Error("preflight accepted an empty address list")
	}
	// One live node, one dead: the error must name the dead one only.
	dead := "127.0.0.1:1"
	err = PreflightCacheAddrs([]string{addrs[0], dead}, 500*time.Millisecond)
	if err == nil {
		t.Fatal("preflight of a dead node succeeded")
	}
	if !strings.Contains(err.Error(), dead) {
		t.Errorf("error %q does not name the dead node %s", err, dead)
	}
	if strings.Contains(err.Error(), addrs[0]) {
		t.Errorf("error %q names the healthy node %s", err, addrs[0])
	}
}

// TestTierLoadPrepareFailsOnUnreachableTier pins the fix for the silent
// startup failure: a worker pointed at an unreachable tier must error in
// Prepare (which the worker loop reports as ERR prepare, aborting the whole
// coordinated run) rather than limping into warmup.
func TestTierLoadPrepareFailsOnUnreachableTier(t *testing.T) {
	tl := &TierLoad{}
	defer tl.Close()
	spec := exp11Spec(ExpOptions{Quick: true}, 2)
	spec.CacheAddrs = []string{"127.0.0.1:1"}
	err := tl.Prepare(spec)
	if err == nil {
		t.Fatal("Prepare succeeded against an unreachable tier")
	}
	if !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Errorf("error %q does not name the unreachable node", err)
	}
}
