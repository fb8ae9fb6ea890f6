package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cachegenie/internal/cluster"
	"cachegenie/internal/core"
	"cachegenie/internal/kvcache"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the tests
// check the command against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// smallScale shrinks every workload's page counts for the self-tests.
const smallScale = "0.05"

type lastLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runSmall(t *testing.T, name, trace string) (lastLine, result) {
	t.Helper()
	out := t.TempDir()
	var buf bytes.Buffer
	args := []string{"--workload", name, "--seed", "7", "--seconds", "0",
		"--scale", smallScale, "--trace", trace, "--out", out}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var ll lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ll); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	b, err := os.ReadFile(filepath.Join(out, name+"-seed7-trace"+trace+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	return ll, res
}

// TestEveryWorkloadPrintsEveryMetric runs each workload of BENCHMARK.json at
// a small size, untraced and traced, and checks that the last line carries
// every metric BENCHMARK.json names with its unit, that the audit visited
// at least one key, and that the traced run's layer self times add up to
// its mean page time.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				ll, res := runSmall(t, w.Name, trace)
				if !ll.Correct || ll.Attempted < 1 || ll.Failed != 0 {
					t.Errorf("trace %s: correct=%v attempted=%d failed=%d, problems %v",
						trace, ll.Correct, ll.Attempted, ll.Failed, res.Problems)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					m, ok := ll.Metrics[name]
					if !ok {
						t.Errorf("trace %s: metric %s missing", trace, name)
					} else if m.Unit != unit {
						t.Errorf("trace %s: metric %s unit %q, BENCHMARK.json says %q", trace, name, m.Unit, unit)
					}
				}
				if len(ll.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics printed, BENCHMARK.json names %d", trace, len(ll.Metrics), len(want))
				}
				for _, tr := range res.Trials {
					if tr.Audit.Keys < 1 {
						t.Errorf("trace %s trial %d: audit visited no key", trace, tr.Index)
					}
					if !tr.Traced {
						continue
					}
					sum := 0.0
					for _, v := range tr.SelfUsPerPage {
						sum += v
					}
					page := tr.Metrics["trace.page_us"].Value
					if math.Abs(sum-page) > 1e-6*page {
						t.Errorf("self times sum to %.6f us/page, mean traced page is %.6f us", sum, page)
					}
				}
			}
		})
	}
}

// TestAuditCountsPlantedDefect overwrites one cached entry in one node and
// checks that the audit counts exactly that one more stale key.
func TestAuditCountsPlantedDefect(t *testing.T) {
	for _, name := range []string{"hot-read-tcp", "small-cache"} {
		t.Run(name, func(t *testing.T) {
			st, _ := smallStack(t, name)
			before, err := audit(st)
			if err != nil {
				t.Fatal(err)
			}
			var planted string
			for _, k := range st.stores[0].Keys() {
				co, _, err := st.parseKey(k)
				if err == nil && co.Spec().Class == core.CountQuery {
					if !slices.Contains(before.StaleKeys, k) {
						planted = k
						break
					}
				}
			}
			if planted == "" {
				t.Fatal("no fresh cached count entry to plant a defect in")
			}
			st.stores[0].Set(planted, []byte("987654321"), 0)
			after, err := audit(st)
			if err != nil {
				t.Fatal(err)
			}
			if after.Stale != before.Stale+1 || after.Keys != before.Keys {
				t.Fatalf("audit after planting: %d stale of %d keys, before: %d of %d",
					after.Stale, after.Keys, before.Stale, before.Keys)
			}
			if !slices.Contains(after.StaleKeys, planted) {
				t.Fatalf("planted key %s not reported stale", planted)
			}
		})
	}
}

// smallStack builds a workload's stack and serves a few sessions on it.
func smallStack(t *testing.T, name string) (*stack, phaseResult) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStack(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	sessions := makeSessions(rand.New(rand.NewSource(5)), 60, w.Users, w.ZipfA, w.WritePct)
	ph := runPhase(st, sessions, w.Clients, 0, nil)
	if ph.Failed != 0 {
		t.Fatalf("%d page loads failed: %v", ph.Failed, ph.FirstErr)
	}
	return st, ph
}

// TestTracingKeepsTheWork runs an untraced and a traced trial with the
// same inputs on every workload and checks that they agree on the work a
// page does, within db_stmts_per_page's bound.
func TestTracingKeepsTheWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	bf := readBenchmarkFile(t)
	bound := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "db_stmts_per_page" {
			bound = m.Bound
		}
	}
	o := options{scale: 0.25, out: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runTrial(w, o, 0, 11, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTrial(w, o, 0, 11, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"db_stmts_per_page", "kvcache.ops_per_page", "invbus.published_per_page"} {
				p, tr := plain.Metrics[name].Value, traced.Metrics[name].Value
				if name == "db_stmts_per_page" {
					tr = traced.Metrics["sqldb.selects_per_page"].Value + traced.Metrics["sqldb.writes_per_page"].Value
				}
				if math.Abs(p-tr) > bound*math.Max(p, 1e-9) && !(p == 0 && tr == 0) {
					t.Errorf("%s: untraced %.4f, traced %.4f, beyond bound %.2f", name, p, tr, bound)
				}
			}
		})
	}
}

// TestBusFlushesReachApplyBatch checks that on write-durable the
// invalidation bus flushes through the logical-cache wrapper's ApplyBatch,
// the batch path the bare cache would take.
func TestBusFlushesReachApplyBatch(t *testing.T) {
	st, _ := smallStack(t, "write-durable")
	st.genie.FlushInvalidations()
	if st.genie.InvStats().Flushes == 0 {
		t.Fatal("bus never flushed")
	}
	if st.logical.batches.Load() == 0 || st.logical.batchOps.Load() == 0 {
		t.Fatalf("bus flushes did not reach ApplyBatch: %d batches", st.logical.batches.Load())
	}
}

type unhealthy struct{ kvcache.Cache }

func (unhealthy) Healthy() bool { return false }

// TestCacheWrapperForwardsOptionalInterfaces checks Unwrap, HealthReporter,
// ReplicaStatsReporter and BatchApplier forwarding.
func TestCacheWrapperForwardsOptionalInterfaces(t *testing.T) {
	p := &probes{}
	a, b := kvcache.New(0), kvcache.New(0)
	ring, err := cluster.NewManager([]string{"a", "b"}, []kvcache.Cache{a, b}, cluster.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	w := newCache(ring, p, layerCache)
	if w.Unwrap() != kvcache.Cache(ring) {
		t.Error("Unwrap does not return the wrapped cache")
	}
	// Only the second replica holds the key, so the read fails over.
	[]*kvcache.Store{a, b}[ring.Ring().ReplicasFor("k")[1]].Set("k", []byte("v"), 0)
	if _, ok := w.Get("k"); !ok {
		t.Fatal("replicated get missed")
	}
	if got, want := w.ReplicaStats(), ring.ReplicaStats(); got != want || got.FailoverReads != 1 {
		t.Errorf("ReplicaStats %+v, ring reports %+v", got, want)
	}
	if !newCache(a, p, layerNode).Healthy() {
		t.Error("a cache without a HealthReporter must count as healthy")
	}
	if newCache(unhealthy{a}, p, layerNode).Healthy() {
		t.Error("Healthy does not forward")
	}
	res := w.ApplyBatch([]kvcache.BatchOp{{Kind: kvcache.BatchSet, Key: "x", Value: []byte("1")}})
	if len(res) != 1 || !res[0].Found {
		t.Errorf("ApplyBatch result %+v", res)
	}
	if _, ok := a.Get("x"); !ok {
		t.Error("batch did not reach the replicas")
	}
}
