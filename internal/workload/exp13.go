package workload

import (
	"bytes"

	"cachegenie/internal/obs"
	"cachegenie/internal/social"
)

// ---------- Experiment 13: hot keys under zipf skew + flash crowd ----------
//
// The replicated tier of Experiments 10-12 balances *keys* across nodes; it
// does nothing about a single key taking a disproportionate share of all
// traffic. This experiment makes that failure mode concrete — a zipf s=1.1
// user popularity plus a flash crowd stampeding one page — and measures the
// one mitigation whose effect beats run-to-run noise: single-flight, which
// coalesces concurrent misses of one key into a single database load.
//
// Reported per configuration: read-page tail latency (p99/p999 — the tail
// is where one saturated node or a miss stampede shows first), per-node get
// imbalance (max/mean of per-node get counts), and the database read loads
// actually run (the single-flight target).

// Exp13Nodes is the ring size; Exp13Replicas the replication factor.
const (
	Exp13Nodes    = 4
	Exp13Replicas = 2
)

// Exp13ZipfS is the rank-frequency exponent of the user popularity
// (RunConfig.ZipfS); Exp13FlashPct the share of page loads redirected to
// the viral page (RunConfig.FlashCrowdPct).
const (
	Exp13ZipfS    = 1.1
	Exp13FlashPct = 25
)

// Exp13Point is one configuration's measurement.
type Exp13Point struct {
	Name         string `json:"name"`
	SingleFlight bool   `json:"singleflight"`

	Throughput float64 `json:"throughput_pages_per_sec"`
	Errors     int     `json:"errors"`
	// Read-page latency (LookupBM — the page the flash crowd stampedes).
	ReadMeanMs float64 `json:"read_mean_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	ReadP999Ms float64 `json:"read_p999_ms"`

	// NodeGets is each node's get count (hits+misses at the store end) in
	// ring order; Imbalance is max/mean over those counts — 1.0 is perfect
	// balance, Exp13Nodes is everything on one node.
	NodeGets  []int64 `json:"node_gets"`
	Imbalance float64 `json:"imbalance_max_over_mean"`

	// DBReadLoads is how many read-miss database loads actually ran:
	// misses minus the loads that piggybacked on a concurrent leader.
	DBReadLoads int64 `json:"db_read_loads"`

	// FlightLeads/FlightShared are the single-flight counters (zero with
	// the mitigation off).
	FlightLeads  int64 `json:"singleflight_leads"`
	FlightShared int64 `json:"singleflight_shared"`

	// Metrics is the registry dump captured before teardown (the
	// single-flight point's dump is written beside the artifact).
	Metrics []byte `json:"-"`
}

// Exp13Result is the full Experiment 13 report, and the BENCH_exp13.json
// document.
type Exp13Result struct {
	Experiment    string       `json:"experiment"`
	Nodes         int          `json:"nodes"`
	Replicas      int          `json:"replicas"`
	ZipfS         float64      `json:"zipf_s"`
	FlashCrowdPct int          `json:"flash_crowd_pct"`
	Points        []Exp13Point `json:"points"`
}

// Point returns the named configuration's measurement, if present.
func (r Exp13Result) Point(name string) (Exp13Point, bool) {
	for _, p := range r.Points {
		if p.Name == name {
			return p, true
		}
	}
	return Exp13Point{}, false
}

// exp13Config is one Experiment 13 stack: ModeUpdate over Exp13Nodes
// loopback cacheproto servers at R=Exp13Replicas, with single-flight on or
// off. Per-node imbalance is only meaningful when nodes are actual servers
// whose store counters the experiment can read.
func exp13Config(opt ExpOptions, singleFlight bool) (StackConfig, error) {
	cfg, err := opt.loopbackConfig("exp13", Exp13Nodes)
	cfg.Replicas = Exp13Replicas
	cfg.SingleFlight = singleFlight
	return cfg, err
}

// Exp13 runs the zipf + flash-crowd workload with single-flight off
// ("all-off") and on ("singleflight"). Expected shape: single-flight
// collapses the stampede's database loads to ~1 per hot key per miss
// window.
func Exp13(opt ExpOptions) (Exp13Result, error) {
	res := Exp13Result{
		Experiment: "exp13-hot-keys", Nodes: Exp13Nodes, Replicas: Exp13Replicas,
		ZipfS: Exp13ZipfS, FlashCrowdPct: Exp13FlashPct,
	}
	for _, sf := range []bool{false, true} {
		p, err := exp13Point(opt, sf)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
	}
	off, on := res.Points[0], res.Points[1]
	opt.logf("exp13 all-off vs singleflight: p999 %.3fms -> %.3fms, imbalance %.2f -> %.2f, db read loads %d -> %d",
		off.ReadP999Ms, on.ReadP999Ms, off.Imbalance, on.Imbalance, off.DBReadLoads, on.DBReadLoads)
	return res, nil
}

func exp13Point(opt ExpOptions, singleFlight bool) (Exp13Point, error) {
	p := Exp13Point{Name: "all-off", SingleFlight: singleFlight}
	if singleFlight {
		p.Name = "singleflight"
	}
	// Fresh registry per point unless the caller supplied one: each point's
	// loopback servers get fresh ports, and stale series would pile up.
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		opt.Metrics = reg
	}
	cfg, err := exp13Config(opt, singleFlight)
	if err != nil {
		return p, err
	}
	st, err := BuildStack(cfg)
	if err != nil {
		return p, err
	}
	defer st.Close()

	runCfg := opt.runCfg(15, 20, 2.0)
	runCfg.ZipfS = Exp13ZipfS
	runCfg.FlashCrowdPct = Exp13FlashPct
	rep, err := Run(st, runCfg)
	if err != nil {
		return p, err
	}

	p.Throughput = rep.Throughput
	p.Errors = rep.Errors
	read := rep.ByPage[social.PageLookupBM]
	p.ReadMeanMs, p.ReadP99Ms, p.ReadP999Ms = ms(read.Mean), ms(read.P99), ms(read.P999)

	// Per-node get imbalance from the store ends.
	var total, max int64
	for _, store := range st.Stores {
		s := store.Stats()
		gets := s.Hits + s.Misses
		p.NodeGets = append(p.NodeGets, gets)
		total += gets
		if gets > max {
			max = gets
		}
	}
	if len(p.NodeGets) > 0 && total > 0 {
		mean := float64(total) / float64(len(p.NodeGets))
		p.Imbalance = float64(max) / mean
	}

	gs := st.Genie.Stats()
	p.FlightLeads, p.FlightShared = gs.FlightLeads, gs.FlightShared
	p.DBReadLoads = gs.Misses - gs.FlightShared

	opt.logf("exp13 %-12s %9.1f pages/s  read p99=%.3fms p999=%.3fms  imbalance=%.2f  db-loads=%d  (sf shared=%d)",
		p.Name, p.Throughput, p.ReadP99Ms, p.ReadP999Ms, p.Imbalance, p.DBReadLoads, p.FlightShared)

	var dump bytes.Buffer
	if err := reg.WritePrometheus(&dump); err == nil {
		p.Metrics = dump.Bytes()
	}
	return p, nil
}
