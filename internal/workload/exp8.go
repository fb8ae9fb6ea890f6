package workload

import (
	"fmt"
	"time"

	"cachegenie/internal/cacheproto"
	"cachegenie/internal/obs"
)

// ---------- Experiment 8: node failure and live ring membership ----------

// Exp8Nodes is the ring size Experiment 8 deploys, matching Experiment 7 so
// the healthy phase is directly comparable.
const Exp8Nodes = 4

// Exp8KillIndex is the node Experiment 8 kills mid-run.
const Exp8KillIndex = 1

// exp8ProbeInterval is the breaker probe cadence the experiment configures:
// fast enough that recovery is visible inside a short run, slow enough that
// probing is not itself a load.
const exp8ProbeInterval = 25 * time.Millisecond

// exp8SampleKeys sizes the keyspace sample used to measure remap fractions.
const exp8SampleKeys = 4000

// Exp8Phase is one workload pass of a failure timeline. HitRate is the
// Genie read-path hit rate during this phase only (cumulative counters are
// differenced across the phase).
type Exp8Phase struct {
	Name       string  `json:"name"`
	Throughput float64 `json:"throughput_pages_per_sec"`
	HitRate    float64 `json:"hit_rate"`
	MeanLatMs  float64 `json:"mean_lat_ms"`
	Errors     int     `json:"errors"`
}

// Exp8Phases is a failure timeline's passes in run order.
type Exp8Phases []Exp8Phase

// Phase returns the named pass (zero-valued when absent).
func (ps Exp8Phases) Phase(name string) Exp8Phase {
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	return Exp8Phase{}
}

// Exp8Result is the full Experiment 8 report, and the BENCH_exp8.json
// document.
type Exp8Result struct {
	Experiment string `json:"experiment"`
	// The failure timeline: "healthy" (all nodes up), "degraded" (one node
	// killed, breaker armed), "removed" (the dead node dropped from the
	// ring), "rejoined" (the node revived, cold, and re-added).
	Phases Exp8Phases `json:"phases"`

	// Per-op Get latency against the dead node: with the breaker open every
	// op short-circuits in-process; with the breaker disabled every op pays
	// a fresh failed dial — the pre-resilience behaviour.
	FailFastP50Us  float64 `json:"fail_fast_p50_us"`
	FailFastP99Us  float64 `json:"fail_fast_p99_us"`
	DialStormP50Us float64 `json:"dial_storm_p50_us"`
	DialStormP99Us float64 `json:"dial_storm_p99_us"`

	// RemapFraction is the share of sampled keys whose owner changed when
	// the dead node left the ring (expect ~1/Exp8Nodes); RejoinExact reports
	// whether re-adding the node under the same identity restored the
	// original assignment for every sampled key.
	RemapFraction float64 `json:"remap_fraction"`
	RejoinExact   bool    `json:"rejoin_exact"`

	// Breaker accounting on the killed node's pool over the degraded phase,
	// and the unreachable-node count the tier stats reported while it was
	// down.
	BreakerTrips     int64 `json:"breaker_trips"`
	FailFastOps      int64 `json:"fail_fast_ops"`
	UnreachableNodes int   `json:"unreachable_nodes"`
}

// exp8Config is the Experiment 8 stack: ModeUpdate over Exp8Nodes
// self-launched loopback cacheproto servers with the breaker armed at its
// default threshold and a fast probe interval.
func exp8Config(opt ExpOptions) (StackConfig, error) {
	cfg, err := opt.loopbackConfig("exp8", Exp8Nodes)
	cfg.ProbeInterval = exp8ProbeInterval
	return cfg, err
}

// Exp8 runs the node-failure timeline and measures what the resilience
// machinery buys: fail-fast latency versus the per-op dial storm, hit-rate
// collapse and recovery, and the ~1/N remap bound on membership change.
func Exp8(opt ExpOptions) (Exp8Result, error) {
	res := Exp8Result{Experiment: "exp8-node-failure"}
	cfg, err := exp8Config(opt)
	if err != nil {
		return res, err
	}
	st, err := BuildStack(cfg)
	if err != nil {
		return res, err
	}
	defer st.Close()
	if st.Ring == nil {
		return res, fmt.Errorf("workload: exp8 stack has no ring manager")
	}

	runCfg := opt.runCfg(15, 40, 2.0)
	phase := func(name string) error {
		p, err := timelinePhase(opt, st, runCfg, "exp8 ", name)
		if err == nil {
			res.Phases = append(res.Phases, p)
		}
		return err
	}

	// Record the healthy ownership of a keyspace sample for the remap
	// measurements.
	ownersHealthy := make(map[string]string, exp8SampleKeys)
	for i := 0; i < exp8SampleKeys; i++ {
		k := fmt.Sprintf("exp8-sample-%d", i)
		ownersHealthy[k] = st.Ring.OwnerID(k)
	}

	if err := phase("healthy"); err != nil {
		return res, err
	}

	// Kill one node. Routing still targets it, so its key share degrades to
	// misses; the breaker turns each of those from a failed dial into an
	// in-process short-circuit.
	deadID := st.Ring.NodeIDs()[Exp8KillIndex]
	deadPool := st.Pools[Exp8KillIndex]
	if err := st.KillNode(Exp8KillIndex); err != nil {
		return res, err
	}
	if err := phase("degraded"); err != nil {
		return res, err
	}
	res.UnreachableNodes = st.CacheTierStats().UnreachableNodes
	ps := deadPool.Stats()
	res.BreakerTrips = ps.Trips
	res.FailFastOps = ps.FailFast

	// Per-op comparison on the dead address: breaker fail-fast vs the
	// pre-resilience dial storm.
	res.FailFastP50Us, res.FailFastP99Us = timeGets(deadPool)
	storm := cacheproto.NewPoolWithConfig(cacheproto.PoolConfig{
		Addr: deadPool.Addr(), DisableBreaker: true,
	})
	res.DialStormP50Us, res.DialStormP99Us = timeGets(storm)
	_ = storm.Close()
	opt.logf("exp8  dead-node op latency: fail-fast p99=%.1fµs  dial-storm p99=%.1fµs (%0.fx)",
		res.FailFastP99Us, res.DialStormP99Us, ratio(res.DialStormP99Us, res.FailFastP99Us))

	// Membership change: drop the dead node. Only its key share remaps.
	if err := st.Ring.RemoveNode(deadID); err != nil {
		return res, err
	}
	moved, survivorMoved := 0, 0
	for k, owner := range ownersHealthy {
		now := st.Ring.OwnerID(k)
		if now != owner {
			moved++
			if owner != deadID {
				survivorMoved++
			}
		}
	}
	if survivorMoved > 0 {
		return res, fmt.Errorf("workload: exp8 remap touched %d keys on surviving nodes", survivorMoved)
	}
	res.RemapFraction = float64(moved) / float64(len(ownersHealthy))
	opt.logf("exp8  RemoveNode(%s): %.3f of keys remapped (~1/%d expected), survivors untouched",
		deadID, res.RemapFraction, Exp8Nodes)
	if err := phase("removed"); err != nil {
		return res, err
	}

	// Recovery: revive the process (cold) and rejoin under the same
	// identity; the stable ids reproduce the healthy assignment exactly.
	if err := st.ReviveNode(Exp8KillIndex); err != nil {
		return res, err
	}
	waitHealthy(deadPool, 5*time.Second)
	if err := st.Ring.AddNode(deadID, deadPool); err != nil {
		return res, err
	}
	res.RejoinExact = true
	for k, owner := range ownersHealthy {
		if st.Ring.OwnerID(k) != owner {
			res.RejoinExact = false
			break
		}
	}
	if err := phase("rejoined"); err != nil {
		return res, err
	}
	opt.logf("exp8  rejoin restored original ownership: %v  (breaker trips=%d, fail-fast ops=%d, unreachable during outage=%d)",
		res.RejoinExact, res.BreakerTrips, res.FailFastOps, res.UnreachableNodes)
	return res, nil
}

// timelinePhase runs one workload pass of a failure timeline on st and
// measures it, logging the pass under label with the tier's breaker
// picture.
func timelinePhase(opt ExpOptions, st *Stack, rc RunConfig, label, name string) (Exp8Phase, error) {
	before := st.Genie.Stats()
	rep, err := Run(st, rc)
	if err != nil {
		return Exp8Phase{}, err
	}
	after := st.Genie.Stats()
	p := Exp8Phase{
		Name: name, Throughput: rep.Throughput,
		MeanLatMs: ms(rep.MeanLatency()), Errors: rep.Errors,
	}
	if total := (after.Hits - before.Hits) + (after.Misses - before.Misses); total > 0 {
		p.HitRate = float64(after.Hits-before.Hits) / float64(total)
	}
	opt.logf("%s %-9s %9.1f pages/s  hit=%.2f  mean=%.3fms  errors=%d  breakers: %s",
		label, name, p.Throughput, p.HitRate, p.MeanLatMs, p.Errors,
		st.CacheTierStats().HealthLine())
	return p, nil
}

// timeGets issues per-op Gets against the pool and returns p50/p99 latency
// in microseconds from an obs histogram (within one bucket of the exact
// order statistic).
func timeGets(p *cacheproto.Pool) (p50us, p99us float64) {
	const ops = 200
	var h obs.Histogram
	for i := 0; i < ops; i++ {
		start := time.Now()
		p.Get(fmt.Sprintf("exp8-probe-%d", i))
		h.ObserveSince(start)
	}
	s := h.Snapshot()
	return us(time.Duration(s.Quantile(0.50))), us(time.Duration(s.Quantile(0.99)))
}

// waitHealthy polls until the pool's breaker closes or the deadline passes;
// the caller's next phase tolerates either (ops just stay degraded).
func waitHealthy(p *cacheproto.Pool, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.State() == cacheproto.BreakerClosed {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
