package workload

import (
	"runtime"
	"testing"

	"cachegenie/internal/kvcache"
)

// TestExp9RunPoint exercises one measurement point end to end on a tiny op
// count: throughput, latency percentiles, and alloc accounting must all be
// populated and sane.
func TestExp9RunPoint(t *testing.T) {
	store := kvcache.New(0)
	pt := exp9Run(store, 4, 8_000)
	if pt.Ops != 8_000 {
		t.Fatalf("ops = %d", pt.Ops)
	}
	if pt.OpsPerSec <= 0 || pt.NsPerOp <= 0 {
		t.Fatalf("rates not measured: %+v", pt)
	}
	if pt.P50Us <= 0 || pt.P99Us < pt.P50Us {
		t.Fatalf("percentiles inconsistent: p50=%vµs p99=%vµs", pt.P50Us, pt.P99Us)
	}
	if pt.AllocsPerOp > 3 {
		t.Fatalf("allocs/op = %.2f, want ~1 (the Get copy)", pt.AllocsPerOp)
	}
}

// TestExp9SweepShape runs the full sweep at quick scale and checks the
// artifact covers both transports, both stripe configurations, and a 16+
// client point — the acceptance surface of the experiment. Short mode skips
// it: the sweep launches real TCP stacks and runs a few million ops.
func TestExp9SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("exp9 sweep in -short")
	}
	res, err := Exp9(ExpOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GOMAXPROCS != runtime.GOMAXPROCS(0) || res.ShardedShards < 4 {
		t.Fatalf("runner metadata: %+v", res)
	}
	wantPoints := 2 * 2 * len(Exp9Clients(true))
	if len(res.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(res.Points), wantPoints)
	}
	seen := map[string]bool{}
	for _, p := range res.Points {
		if p.OpsPerSec <= 0 {
			t.Fatalf("dead point: %+v", p)
		}
		if p.Clients >= 16 {
			seen[p.Transport] = true
		}
	}
	if !seen["local"] || !seen["remote"] {
		t.Fatalf("missing 16+-client coverage: %v", seen)
	}
	for _, transport := range []string{"local", "remote"} {
		if sp := res.Speedup(transport, 16); sp <= 0 {
			t.Fatalf("speedup(%s, 16) = %v", transport, sp)
		}
	}
}

// TestStackCacheShardsKnob proves the stripe-count knob reaches the stack's
// stores on the in-process transport.
func TestStackCacheShardsKnob(t *testing.T) {
	st, err := BuildStack(StackConfig{
		Mode:        ModeUpdate,
		Seed:        tinyOpts().Seed,
		CacheShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stores[0].NumShards(); n != 1 {
		t.Fatalf("NumShards = %d, want 1", n)
	}
	st2, err := BuildStack(StackConfig{
		Mode:        ModeUpdate,
		Seed:        tinyOpts().Seed,
		CacheShards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := st2.Stores[0].NumShards(); n != 8 {
		t.Fatalf("NumShards = %d, want 8", n)
	}
}
