package workload

import (
	"strings"
	"testing"

	"cachegenie/internal/social"
)

// TestExp13StackWiresMitigations: the exp13 stacks are the 4-node R=2
// loopback tier, and only the single-flight configuration arms
// single-flight.
func TestExp13StackWiresMitigations(t *testing.T) {
	for _, sf := range []bool{false, true} {
		cfg, err := exp13Config(tinyOpts(), sf)
		if err != nil {
			t.Fatal(err)
		}
		st, err := BuildStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		if st.Config.SingleFlight != sf {
			t.Fatalf("singleflight=%v stack has SingleFlight=%v", sf, st.Config.SingleFlight)
		}
		if len(st.Servers) != Exp13Nodes || st.Ring == nil || st.Ring.Replicas() != Exp13Replicas {
			t.Fatalf("singleflight=%v stack is not the %d-node R=%d loopback tier: %d servers, ring %v",
				sf, Exp13Nodes, Exp13Replicas, len(st.Servers), st.Ring)
		}
	}
}

func TestExp13RejectsExternalAddrs(t *testing.T) {
	opt := tinyOpts()
	opt.CacheAddrs = []string{"127.0.0.1:1"}
	if _, err := Exp13(opt); err == nil {
		t.Fatal("exp13 accepted external cache addrs whose store counters it cannot read")
	}
}

// TestExp13HotKeyTimeline is the acceptance run: under zipf s=1.1 plus a
// flash crowd, both configurations measure a full tier, single-flight stays
// silent when off, and the single-flight point runs no more database read
// loads than all-off.
func TestExp13HotKeyTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("two full workload runs over TCP")
	}
	res, err := Exp13(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	off, ok := res.Point("all-off")
	if !ok {
		t.Fatal("no all-off point")
	}
	on, ok := res.Point("singleflight")
	if !ok {
		t.Fatal("no singleflight point")
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 || p.ReadP999Ms <= 0 {
			t.Fatalf("%s: empty measurement: %+v", p.Name, p)
		}
		if len(p.NodeGets) != Exp13Nodes || p.Imbalance < 1 {
			t.Fatalf("%s: node gets %v imbalance %.2f", p.Name, p.NodeGets, p.Imbalance)
		}
	}
	if off.FlightShared != 0 {
		t.Fatalf("all-off point shows single-flight activity: %+v", off)
	}
	if on.DBReadLoads > off.DBReadLoads {
		t.Fatalf("singleflight ran more db read loads (%d) than all-off (%d)",
			on.DBReadLoads, off.DBReadLoads)
	}
	if len(on.Metrics) == 0 || !strings.Contains(string(on.Metrics), "cachegenie_singleflight_shared_total") {
		t.Fatal("singleflight point missing its metrics dump")
	}
}

// TestExp13FlashCrowdRedirects: the FlashCrowdPct knob redirects page loads
// to one LookupBM key — visible as a LookupBM page count far above the
// 50% read-mix share.
func TestExp13FlashCrowdRedirects(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	opt := tinyOpts()
	stCfg, err := exp13Config(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStack(stCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	cfg := opt.runCfg(4, 20, 2.0)
	cfg.ZipfS = Exp13ZipfS
	cfg.FlashCrowdPct = 100 // every eligible page load stampedes the hot page
	rep, err := Run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lookups := rep.ByPage[social.PageLookupBM].Count
	other := rep.ByPage[social.PageLookupFBM].Count + rep.ByPage[social.PageCreateBM].Count +
		rep.ByPage[social.PageAcceptFR].Count
	if other != 0 || lookups == 0 {
		t.Fatalf("flash crowd at 100%% left %d non-lookup pages (lookups=%d)", other, lookups)
	}
}
