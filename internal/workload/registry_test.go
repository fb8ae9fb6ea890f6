package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentRegistry: registry names are unique, "all" runs every entry
// in table order, and an unknown name fails listing the valid ones.
func TestExperimentRegistry(t *testing.T) {
	t.Run("unique names", func(t *testing.T) {
		seen := map[string]bool{"all": true}
		for _, e := range Experiments {
			if seen[e.Name] || e.Title == "" || e.Run == nil {
				t.Fatalf("bad or duplicate registry entry %+v", e)
			}
			seen[e.Name] = true
		}
	})
	var ran []string
	table := []Experiment{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	for i := range table {
		name := table[i].Name
		table[i].Title = "experiment " + name
		table[i].Run = func(ExpOptions) (any, error) {
			ran = append(ran, name)
			return nil, nil
		}
	}
	t.Run("all runs in table order", func(t *testing.T) {
		ran = nil
		var out bytes.Buffer
		if err := RunExperiments(table, "all", ExpOptions{Out: &out}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(ran, ",") != "a,b,c" {
			t.Fatalf("ran %v, want a,b,c", ran)
		}
		if !strings.Contains(out.String(), "== experiment b ==") {
			t.Fatalf("no title frame in output:\n%s", out.String())
		}
	})
	t.Run("unknown name lists valid names", func(t *testing.T) {
		ran = nil
		err := RunExperiments(table, "nope", ExpOptions{})
		if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "all, a, b, c") {
			t.Fatalf("err = %v, want the unknown name and the valid list", err)
		}
		if len(ran) != 0 {
			t.Fatalf("ran %v on an unknown name", ran)
		}
	})
}

// TestWriteArtifact: every experiment's result document serializes with
// the key names CI and artifact consumers read, and the metrics dump is
// written beside it only when present.
func TestWriteArtifact(t *testing.T) {
	exp9 := Exp9Result{
		Experiment: "exp9-core-scaling", GOMAXPROCS: 8, NumCPU: 8, ShardedShards: 32,
		Points: []Exp9Point{
			{Transport: "local", Shards: 1, Clients: 16, Ops: 1000, OpsPerSec: 1e6,
				P50Us: 1, P99Us: 5, NsPerOp: 1000, AllocsPerOp: 0.9},
			{Transport: "local", Shards: 32, Clients: 16, Ops: 1000, OpsPerSec: 2.5e6,
				P50Us: 1, P99Us: 2, NsPerOp: 400, AllocsPerOp: 0.9},
		},
	}
	exp9.computeSpeedups()
	exp10 := Exp10Result{Experiment: "exp10-replicated-failover", Nodes: 4, Timelines: []Exp10Timeline{
		{Replicas: 1, Phases: Exp8Phases{
			{Name: "healthy", Throughput: 100, HitRate: 0.94},
			{Name: "degraded", Throughput: 70, HitRate: 0.80},
		}},
		{Replicas: 2, FailoverReads: 42, ScannedKeys: 1234, Phases: Exp8Phases{
			{Name: "healthy", Throughput: 98, HitRate: 0.94},
			{Name: "degraded", Throughput: 90, HitRate: 0.93},
		}},
	}}
	exp11 := newExp11Result(2, 2)
	exp11.Points = []Exp11Point{{
		Workers: 2, ClientsPerWorker: 4, Ops: 1000,
		AggOpsPerSec: 5000, BestWorkerOpsPerSec: 3000, BestWorkerID: "w1",
		PerWorkerOpsPerSec: []float64{2000, 3000},
		HitRate:            0.95, P50us: 40, P99us: 200, P999us: 400,
	}}
	exp12 := newExp12Result("external")
	exp12.Points = []Exp12Point{{AckedWrites: 17, EpochBefore: 1, EpochAfter: 2, ViolationsNoFlush: 3}}

	for _, tc := range []struct {
		name string
		doc  any
		prom string
		want []string
	}{
		{"exp7", Exp7Result{Experiment: "exp7-remote-cluster", Points: []Exp7Point{
			{Transport: TransportInProcess, Async: false, Throughput: 123.4},
			{Transport: TransportRemote, Async: true, Throughput: 99.9},
		}}, "", []string{
			`"exp7-remote-cluster"`, `"in-process"`, `"remote-tcp"`, `"throughput_pages_per_sec": 123.4`,
		}},
		{"exp8", Exp8Result{
			Experiment: "exp8-node-failure",
			Phases: Exp8Phases{
				{Name: "healthy", Throughput: 100, HitRate: 0.9},
				{Name: "degraded", Throughput: 70, HitRate: 0.6},
				{Name: "removed", Throughput: 90, HitRate: 0.8},
				{Name: "rejoined", Throughput: 99, HitRate: 0.88},
			},
			FailFastP99Us: 0.15, DialStormP99Us: 80,
			RemapFraction: 0.26, RejoinExact: true, BreakerTrips: 1,
		}, "", []string{
			`"exp8-node-failure"`, `"degraded"`, `"rejoined"`,
			`"remap_fraction": 0.26`, `"rejoin_exact": true`, `"fail_fast_p99_us": 0.15`,
		}},
		{"exp9", exp9, "", []string{
			`"experiment": "exp9-core-scaling"`, `"gomaxprocs": 8`, `"shards": 1,`, `"shards": 32,`,
			`"speedups": [
    {
      "transport": "local",
      "clients": 16,
      "sharded_over_1shard": 2.5
    }
  ]`,
		}},
		{"exp10", exp10, "cachegenie_store_items 7\n", []string{
			`"exp10-replicated-failover"`, `"replicas": 1`, `"replicas": 2`,
			`"failover_reads": 42`, `"scanned_keys": 1234`, `"divergent_keys": 0`,
		}},
		{"exp11", exp11, "", []string{
			`"experiment": "exp11"`, `"worker_count": 2`,
			`"agg_ops_per_sec": 5000`, `"best_worker_ops_per_sec": 3000`,
		}},
		{"exp12", exp12, "", []string{
			`"experiment": "exp12"`, `"mode": "external"`, `"acked_writes": 17`,
			`"epoch_after": 2`, `"violations_no_flush": 3`,
		}},
		{"exp13", Exp13Result{
			Experiment: "exp13-hot-keys", Nodes: Exp13Nodes, Replicas: Exp13Replicas,
			ZipfS: Exp13ZipfS, FlashCrowdPct: Exp13FlashPct,
			Points: []Exp13Point{
				{Name: "all-off", Throughput: 100, ReadP999Ms: 9,
					NodeGets: []int64{900, 50, 30, 20}, Imbalance: 3.6, DBReadLoads: 420},
				{Name: "singleflight", SingleFlight: true, Throughput: 140, ReadP999Ms: 3,
					NodeGets: []int64{300, 250, 230, 220}, Imbalance: 1.2, DBReadLoads: 40,
					FlightLeads: 40, FlightShared: 380},
			},
		}, "", []string{
			`"exp13-hot-keys"`, `"zipf_s": 1.1`, `"all-off"`, `"singleflight"`,
			`"imbalance_max_over_mean": 3.6`, `"db_read_loads": 40`,
			`"singleflight_shared": 380`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "BENCH_"+tc.name)
			if err := WriteArtifact(base, tc.doc, []byte(tc.prom)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(base + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(data) {
				t.Fatalf("artifact is not valid JSON:\n%s", data)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(data), want) {
					t.Fatalf("artifact missing %s:\n%s", want, data)
				}
			}
			prom, err := os.ReadFile(base + "_metrics.prom")
			if tc.prom == "" && !os.IsNotExist(err) {
				t.Fatalf("metrics dump written without one: err=%v", err)
			}
			if tc.prom != "" && string(prom) != tc.prom {
				t.Fatalf("metrics dump = %q (err %v), want %q", prom, err, tc.prom)
			}
		})
	}
	if err := WriteArtifact(filepath.Join(t.TempDir(), "missing-dir", "BENCH_x"), Exp7Result{}, nil); err == nil {
		t.Fatal("write into a missing directory reported no error")
	}
}
