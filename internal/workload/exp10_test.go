package workload

import "testing"

// TestReplicatedStackFansOutWrites: a Replicas=2 loopback stack stores
// every cache entry on both of its replicas — checked at the store ends, so
// the fan-out is proven on the wire path, not just in-process.
func TestReplicatedStackFansOutWrites(t *testing.T) {
	cfg, err := exp10Config(tinyOpts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	if st.Ring == nil || st.Ring.Replicas() != 2 {
		t.Fatalf("stack ring replicas = %v", st.Ring)
	}
	ring := st.Ring.Ring()
	key := "exp10-fanout-probe"
	st.Cache.Set(key, []byte("v"), 0)
	reps := ring.ReplicasFor(key)
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("ReplicasFor = %v", reps)
	}
	held := 0
	for i, store := range st.Stores {
		if _, ok := store.GetQuiet(key); ok {
			held++
			inSet := false
			for _, ni := range reps {
				if ring.NodeID(ni) == st.Pools[i].Addr() {
					inSet = true
				}
			}
			if !inSet {
				t.Fatalf("key held on non-replica node %d", i)
			}
		}
	}
	if held != 2 {
		t.Fatalf("key held on %d nodes, want 2", held)
	}
}

// TestExp10ReplicatedFailoverTimeline is the acceptance run: with R=2 the
// hit rate rides through the node kill (>= 0.90, vs the ~0.80 R=1 collapse
// exp8 established) and the staleness scan after FlushInvalidations finds
// no divergent or orphaned replicas.
func TestExp10ReplicatedFailoverTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("six full workload phases over TCP")
	}
	res, err := Exp10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := res.Timeline(1)
	if !ok {
		t.Fatal("no R=1 timeline")
	}
	r2, ok := res.Timeline(Exp10Replicas)
	if !ok {
		t.Fatal("no R=2 timeline")
	}
	for _, tl := range res.Timelines {
		if len(tl.Phases) != 3 {
			t.Fatalf("R=%d phases = %+v, want healthy/degraded/recovered", tl.Replicas, tl.Phases)
		}
		for _, p := range tl.Phases {
			if p.Throughput <= 0 {
				t.Fatalf("R=%d phase %s has no throughput: %+v", tl.Replicas, p.Name, p)
			}
		}
		if tl.DivergentKeys != 0 || tl.OrphanKeys != 0 {
			t.Fatalf("R=%d staleness scan dirty: %d divergent, %d orphaned of %d",
				tl.Replicas, tl.DivergentKeys, tl.OrphanKeys, tl.ScannedKeys)
		}
		if tl.ScannedKeys == 0 {
			t.Fatalf("R=%d staleness scan saw no keys", tl.Replicas)
		}
	}
	hit1, hit2 := r1.Phases.Phase("degraded").HitRate, r2.Phases.Phase("degraded").HitRate
	if hit2 < 0.90 {
		t.Fatalf("R=2 degraded hit rate = %.3f, want >= 0.90", hit2)
	}
	if hit2 <= hit1 {
		t.Fatalf("R=2 degraded hit %.3f not above R=1's %.3f", hit2, hit1)
	}
	if r2.FailoverReads == 0 {
		t.Fatal("R=2 timeline recorded no failover reads")
	}
	if r2.HandoffCopied == 0 {
		t.Fatal("rejoin handoff copied nothing — the revived node started cold")
	}
}

func TestExp10RejectsExternalAddrs(t *testing.T) {
	opt := tinyOpts()
	opt.CacheAddrs = []string{"127.0.0.1:1"}
	if _, err := Exp10(opt); err == nil {
		t.Fatal("exp10 accepted external cache addrs it cannot kill")
	}
}
