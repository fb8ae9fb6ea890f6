package workload

import (
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
)

func buildExp8TestStack(t *testing.T) *Stack {
	t.Helper()
	cfg, err := exp8Config(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStackKillAndReviveNode(t *testing.T) {
	st := buildExp8TestStack(t)
	addr := st.Pools[1].Addr()

	// Healthy: the node answers over the wire.
	if _, err := st.Pools[1].ServerStats(); err != nil {
		t.Fatalf("healthy node unreachable: %v", err)
	}
	st.Stores[1].Set("warm", []byte("v"), 0)

	if err := st.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Pools[1].ServerStats(); err == nil {
		t.Fatal("killed node still reachable")
	}
	if err := st.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	// Use a fresh pool for the liveness check: the original one may be mid
	// breaker-recovery, which is its own test below.
	probe := cacheproto.NewPool(addr, 1)
	defer probe.Close()
	if _, err := probe.ServerStats(); err != nil {
		t.Fatalf("revived node unreachable: %v", err)
	}
	// The revived node came back cold.
	if _, ok := st.Stores[1].Get("warm"); ok {
		t.Fatal("revived node kept pre-crash entries")
	}

	if err := st.KillNode(99); err == nil {
		t.Fatal("KillNode out of range accepted")
	}
	if err := st.ReviveNode(-1); err == nil {
		t.Fatal("ReviveNode out of range accepted")
	}
}

func TestCacheTierStatsCountsUnreachableNodes(t *testing.T) {
	st := buildExp8TestStack(t)
	if got := st.CacheTierStats().UnreachableNodes; got != 0 {
		t.Fatalf("healthy tier reports %d unreachable nodes", got)
	}
	if err := st.KillNode(2); err != nil {
		t.Fatal(err)
	}
	ts := st.CacheTierStats()
	if ts.UnreachableNodes != 1 {
		t.Fatalf("unreachable = %d, want 1", ts.UnreachableNodes)
	}
	// The loopback stores keep aggregating even while the wire is down.
	st.Stores[0].Set("x", []byte("v"), 0)
	if st.CacheTierStats().Sets == 0 {
		t.Fatal("store-side counters lost")
	}
	if err := st.ReviveNode(2); err != nil {
		t.Fatal(err)
	}
	// The pool on node 2 may need its breaker to close before the probe
	// succeeds again; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st.CacheTierStats().UnreachableNodes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node still unreachable after revive: %+v", st.CacheTierStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExp8NodeFailureTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("four full workload phases over TCP")
	}
	res, err := Exp8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("phases = %+v, want healthy/degraded/removed/rejoined", res.Phases)
	}
	for _, p := range res.Phases {
		if p.Throughput <= 0 {
			t.Fatalf("phase %s has no throughput: %+v", p.Name, p)
		}
	}
	if res.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", res)
	}
	if res.FailFastOps == 0 {
		t.Fatalf("no op ever failed fast: %+v", res)
	}
	if res.UnreachableNodes != 1 {
		t.Fatalf("unreachable during outage = %d, want 1", res.UnreachableNodes)
	}
	// The acceptance criterion: fail-fast ops skip the per-op dial penalty.
	if res.FailFastP99Us >= res.DialStormP99Us {
		t.Fatalf("fail-fast p99 %.1fµs not below dial-storm p99 %.1fµs", res.FailFastP99Us, res.DialStormP99Us)
	}
	// ~1/N of keys remap when the dead node leaves.
	if res.RemapFraction < 0.10 || res.RemapFraction > 0.45 {
		t.Fatalf("remap fraction = %.3f, want ~%.2f", res.RemapFraction, 1.0/Exp8Nodes)
	}
	if !res.RejoinExact {
		t.Fatal("rejoin did not restore the original assignment")
	}
}

func TestExp8RejectsExternalAddrs(t *testing.T) {
	opt := tinyOpts()
	opt.CacheAddrs = []string{"127.0.0.1:1"}
	if _, err := Exp8(opt); err == nil {
		t.Fatal("exp8 accepted external cache addrs it cannot kill")
	}
}
