package workload

import (
	"bytes"
	"fmt"
	"time"

	"cachegenie/internal/obs"
)

// ---------- Experiment 10: replica-aware cluster tier ----------
//
// Experiment 8 established the failure baseline: with single-owner routing
// a node kill costs the dead node's whole key share — hit rate 0.94→~0.80 —
// and every remapped key restarts cold. Experiment 10 reruns that
// kill/revive timeline with the ring's replication factor at R=1 (the exp8
// configuration) and R=2: with a second replica the breaker-aware read path
// fails over to the key's next node and the hit rate should ride through
// the kill nearly unchanged. The run ends with an invalidation-staleness
// scan proving trigger maintenance reached every replica: after the final
// FlushInvalidations no two replicas may disagree on a key's bytes and no
// node may hold a key outside its replica set (the membership-change key
// handoff is what keeps the second invariant).

// Exp10Nodes is the ring size, matching Experiment 8 so the R=1 timeline is
// directly comparable.
const Exp10Nodes = 4

// Exp10KillIndex is the node killed mid-run.
const Exp10KillIndex = 1

// Exp10Replicas is the replicated configuration under test.
const Exp10Replicas = 2

// Exp10Timeline is one replication factor's pass through the failure drill.
type Exp10Timeline struct {
	Replicas int `json:"replicas"`
	// "healthy": all nodes up. "degraded": one node killed, ring membership
	// unchanged — at R=1 its key share degrades to misses, at R=2 reads
	// fail over to the surviving replica. "recovered": the dead node was
	// removed from the ring (handoff drains what it can), revived cold,
	// and rejoined (handoff warms it from the survivors' copies).
	Phases Exp8Phases `json:"phases"`

	// Replica routing counters over the whole timeline (zero at R=1; see
	// cluster.ReplicaStats).
	FailoverReads    int64 `json:"failover_reads"`
	ReadRepairs      int64 `json:"read_repairs"`
	SkippedUnhealthy int64 `json:"skipped_unhealthy"`
	// Handoff counters from the remove/rejoin membership changes (see
	// cluster.HandoffStats).
	HandoffDrained      int64 `json:"handoff_drained"`
	HandoffCopied       int64 `json:"handoff_copied"`
	HandoffSkippedNodes int64 `json:"handoff_skipped_nodes"`
	// Breaker accounting on the killed node's pool.
	BreakerTrips int64 `json:"breaker_trips"`
	FailFastOps  int64 `json:"fail_fast_ops"`

	// Staleness scan after the final FlushInvalidations: every key on every
	// node, checked for replica divergence (two replicas, different bytes)
	// and orphan copies (a node holding a key outside its replica set).
	// Both must be zero — divergence would be a stale read waiting to
	// happen, an orphan a resurfacing hazard on the next membership change.
	ScannedKeys   int `json:"scanned_keys"`
	DivergentKeys int `json:"divergent_keys"`
	OrphanKeys    int `json:"orphan_keys"`

	// Metrics is the stack registry's Prometheus text dump captured at the
	// end of the pass, before teardown — every subsystem's series (store,
	// server, pool, invalidation bus, cluster) as a scrape would have seen
	// them. The final timeline's dump is written beside the artifact.
	Metrics []byte `json:"-"`
}

// Exp10Result is the full Experiment 10 report, and the BENCH_exp10.json
// document.
type Exp10Result struct {
	Experiment string          `json:"experiment"`
	Nodes      int             `json:"nodes"`
	Timelines  []Exp10Timeline `json:"timelines"`
}

// Timeline returns the pass for a replication factor, if present.
func (r Exp10Result) Timeline(replicas int) (Exp10Timeline, bool) {
	for _, t := range r.Timelines {
		if t.Replicas == replicas {
			return t, true
		}
	}
	return Exp10Timeline{}, false
}

// exp10Config is one Experiment 10 stack: the Experiment 8 shape with the
// ring's replication factor set.
func exp10Config(opt ExpOptions, replicas int) (StackConfig, error) {
	cfg, err := opt.loopbackConfig("exp10", Exp10Nodes)
	cfg.ProbeInterval = exp8ProbeInterval
	cfg.Replicas = replicas
	return cfg, err
}

// Exp10 runs the kill/revive timeline at R=1 and R=2 and the staleness
// scan. Expected shape: degraded hit rate collapses by ~1/N at R=1 and
// stays within a few points of healthy at R=2 (failover reads + read
// repair), and both scans come back clean.
func Exp10(opt ExpOptions) (Exp10Result, error) {
	res := Exp10Result{Experiment: "exp10-replicated-failover", Nodes: Exp10Nodes}
	for _, replicas := range []int{1, Exp10Replicas} {
		tl, err := exp10Timeline(opt, replicas)
		if err != nil {
			return res, err
		}
		res.Timelines = append(res.Timelines, tl)
	}
	if r1, ok1 := res.Timeline(1); ok1 {
		if r2, ok2 := res.Timeline(Exp10Replicas); ok2 {
			opt.logf("exp10 degraded hit rate through the kill: R=1 %.2f vs R=%d %.2f (healthy %.2f)",
				r1.Phases.Phase("degraded").HitRate, Exp10Replicas,
				r2.Phases.Phase("degraded").HitRate, r2.Phases.Phase("healthy").HitRate)
		}
	}
	return res, nil
}

func exp10Timeline(opt ExpOptions, replicas int) (Exp10Timeline, error) {
	tl := Exp10Timeline{Replicas: replicas}
	// Each timeline gets its own registry unless the caller supplied one
	// (fresh loopback ports per pass would otherwise pile up stale series).
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		opt.Metrics = reg
	}
	cfg, err := exp10Config(opt, replicas)
	if err != nil {
		return tl, err
	}
	st, err := BuildStack(cfg)
	if err != nil {
		return tl, err
	}
	defer st.Close()
	if st.Ring == nil {
		return tl, fmt.Errorf("workload: exp10 stack has no ring manager")
	}

	runCfg := opt.runCfg(15, 40, 2.0)
	phase := func(name string) error {
		p, err := timelinePhase(opt, st, runCfg, fmt.Sprintf("exp10 R=%d", replicas), name)
		if err == nil {
			tl.Phases = append(tl.Phases, p)
		}
		return err
	}

	if err := phase("healthy"); err != nil {
		return tl, err
	}

	// Kill one node but leave membership alone: this is the phase where the
	// replication factor is the whole story. At R=1 routing still targets
	// the corpse (misses, fail-fast once the breaker trips); at R=2 the
	// ring skips the open breaker and serves the share from its second
	// replica.
	deadID := st.Ring.NodeIDs()[Exp10KillIndex]
	deadPool := st.Pools[Exp10KillIndex]
	if err := st.KillNode(Exp10KillIndex); err != nil {
		return tl, err
	}
	if err := phase("degraded"); err != nil {
		return tl, err
	}
	ps := deadPool.Stats()
	tl.BreakerTrips = ps.Trips
	tl.FailFastOps = ps.FailFast

	// Membership change + recovery: drop the corpse (the handoff pass
	// cannot drain an unreachable node — it is counted as skipped), revive
	// it cold, rejoin under the same identity. The rejoin handoff copies
	// the remapped share from the survivors, so the node comes back warm
	// instead of rebuilding its hit rate from zero.
	if err := st.Ring.RemoveNode(deadID); err != nil {
		return tl, err
	}
	if err := st.ReviveNode(Exp10KillIndex); err != nil {
		return tl, err
	}
	waitHealthy(deadPool, 5*time.Second)
	if err := st.Ring.AddNode(deadID, deadPool); err != nil {
		return tl, err
	}
	hs := st.Ring.HandoffStats()
	tl.HandoffDrained, tl.HandoffCopied, tl.HandoffSkippedNodes = hs.Drained, hs.Copied, hs.SkippedNodes
	opt.logf("exp10 R=%d handoff: %d keys drained, %d copied (warmup), %d nodes unreachable",
		replicas, hs.Drained, hs.Copied, hs.SkippedNodes)
	if err := phase("recovered"); err != nil {
		return tl, err
	}
	rs := st.Ring.ReplicaStats()
	tl.FailoverReads, tl.ReadRepairs, tl.SkippedUnhealthy = rs.FailoverReads, rs.ReadRepairs, rs.SkippedUnhealthy
	if replicas > 1 {
		opt.logf("exp10 R=%d replica routing: %d failover reads, %d read repairs, %d unhealthy skips",
			replicas, rs.FailoverReads, rs.ReadRepairs, rs.SkippedUnhealthy)
	}

	// Staleness scan: drain trigger maintenance, then audit every copy.
	st.Genie.FlushInvalidations()
	tl.ScannedKeys, tl.DivergentKeys, tl.OrphanKeys = exp10Scan(st)
	opt.logf("exp10 R=%d staleness scan: %d keys, %d divergent, %d orphaned",
		replicas, tl.ScannedKeys, tl.DivergentKeys, tl.OrphanKeys)
	var dump bytes.Buffer
	if err := reg.WritePrometheus(&dump); err == nil {
		tl.Metrics = dump.Bytes()
	}
	return tl, nil
}

// exp10Scan audits the tier against the current ring: every key on every
// (loopback) store, checked for replica divergence and orphan copies. The
// store ends are inspected directly — no wire traffic, no stats skew from
// the audit itself beyond hit counters nobody reads after this point.
func exp10Scan(st *Stack) (scanned, divergent, orphaned int) {
	ring := st.Ring.Ring()
	ownerIDs := func(key string) map[string]bool {
		out := make(map[string]bool, ring.Replicas())
		for _, ni := range ring.ReplicasFor(key) {
			out[ring.NodeID(ni)] = true
		}
		return out
	}
	type copyOf struct {
		id    string
		value []byte
	}
	copies := make(map[string][]copyOf)
	for i, store := range st.Stores {
		id := st.Pools[i].Addr()
		for _, k := range store.Keys() {
			if v, ok := store.GetQuiet(k); ok {
				copies[k] = append(copies[k], copyOf{id: id, value: v})
			}
		}
	}
	for k, held := range copies {
		owners := ownerIDs(k)
		var ref []byte
		refSet, diverged := false, false
		for _, c := range held {
			if !owners[c.id] {
				orphaned++
				continue
			}
			if !refSet {
				ref, refSet = c.value, true
			} else if !bytes.Equal(ref, c.value) {
				diverged = true
			}
		}
		if diverged {
			divergent++
		}
		scanned++
	}
	return scanned, divergent, orphaned
}
