package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json lists,
// in its order: the last line of a run carries exactly these.
var endToEndMetrics = []string{
	"pages_per_s", "read_p50_ms", "read_p95_ms", "write_p50_ms", "write_p95_ms",
	"db_stmts_per_page", "heap_mb", "setup_s",
}

var perLayerMetrics = []string{
	"core.lookups_per_page", "core.hit_ratio", "core.lookup_p50_us", "core.lookup_p99_us",
	"core.self_us_per_page", "core.populate_refused_per_miss", "core.cas_retries_per_write",
	"core.trigger_ops_per_write", "core.topk_recomputes_per_page", "core.audited_keys",
	"kvcache.ops_per_page", "kvcache.get_p50_us", "kvcache.get_p99_us", "kvcache.busy_us_per_page",
	"kvcache.batch_ops_per_call", "kvcache.evictions_per_page", "kvcache.store_hit_ratio", "kvcache.bytes_mb",
	"cluster.failover_reads", "cluster.read_repairs",
	"cacheproto.pool_waits", "cacheproto.errors",
	"invbus.published_per_page", "invbus.coalesced_frac", "invbus.batch_ops_mean", "invbus.stalls", "invbus.drain_ms",
	"sqldb.selects_per_page", "sqldb.writes_per_page", "sqldb.query_p50_us", "sqldb.query_p99_us",
	"sqldb.exec_p50_us", "sqldb.exec_p99_us", "sqldb.self_us_per_page", "sqldb.triggers_per_write",
	"sqldb.aborts", "sqldb.lock_timeouts",
	"storage.pool_hit_ratio", "storage.evictions_per_page",
	"go.alloc_bytes_per_page", "go.gc_cycles_per_kpage", "go.gc_cpu_frac",
	"stale_frac", "failed_frac", "trace.overhead_frac",
}

// options are the command's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies the workload's page counts (tests run small)
	out      string  // directory for the result file and the span dumps
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pagebench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("pagebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: hot-read-tcp, write-durable or small-cache")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "start another trial while one more fits in this many seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiply the workload's page counts by this factor")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result files and span dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.scale <= 0 {
		return o, errors.New("--scale must be positive")
	}
	return o, nil
}

// trialResult is one trial: a fresh stack, set-up, a fixed number of
// measured page loads, the audit, teardown.
type trialResult struct {
	Index   int   `json:"index"`
	Seed    int64 `json:"seed"`
	Traced  bool  `json:"traced"`
	Pages   int   `json:"pages"`
	Failed  int   `json:"failed"`
	Retries int   `json:"retries"`
	// StealFrac is the share of the machine's CPU time the hypervisor gave
	// to other guests during the measured phase; above maxStealFrac the
	// trial is disturbed and left out of the run's medians.
	StealFrac  float64           `json:"steal_frac"`
	Disturbed  bool              `json:"disturbed"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Audit      auditResult       `json:"audit"`
	// SelfUsPerPage splits the traced run's mean page time into layer self
	// times plus the unattributed remainder; the entries sum to page_us.
	SelfUsPerPage map[string]float64 `json:"self_us_per_page,omitempty"`
	// BackgroundUsPerPage is self time spent off the client goroutines
	// (bus workers, replica fan-out), per page; not part of page time.
	BackgroundUsPerPage map[string]float64 `json:"background_us_per_page,omitempty"`
	SpansFile           string             `json:"spans_file,omitempty"`
}

// result is the file every run writes.
type result struct {
	Workload  workload          `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Env       environment       `json:"env"`
	Trials    []trialResult     `json:"trials"`
	Metrics   map[string]metric `json:"metrics"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Disturbed counts trials left out of the medians for steal time.
	Disturbed int `json:"disturbed_trials"`
}

type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

func currentEnv() environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
	}
}

// gitCommit reads HEAD from the nearest enclosing .git directory; a
// checkout without one reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		gd := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(gd, "HEAD")); err == nil {
			h := strings.TrimSpace(string(head))
			ref, isRef := strings.CutPrefix(h, "ref: ")
			if !isRef {
				return h
			}
			if b, err := os.ReadFile(filepath.Join(gd, ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			if b, err := os.ReadFile(filepath.Join(gd, "packed-refs")); err == nil {
				for _, line := range strings.Split(string(b), "\n") {
					if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
						return f[0]
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// datasetSeed seeds the social dataset of every trial: the dataset the
// repository's experiments use (workload.DefaultRun's RngSeed plus one).
// The dataset is fixed and --seed varies the traffic, so trials and runs
// differ only in which sessions they serve: a page's cost follows the
// friend and bookmark counts seeding gives the hottest users, which a
// reseeded dataset would redraw every trial.
const datasetSeed = 43

// runTrial builds a fresh stack, warms it up, serves the measured pages,
// audits the cache and tears the stack down.
func runTrial(w workload, o options, index int, trialSeed int64, traced bool) (trialResult, error) {
	tr := trialResult{Index: index, Seed: trialSeed, Traced: traced}
	rng := rand.New(rand.NewSource(trialSeed))
	pages := int(float64(w.Pages)*o.scale + 0.5)
	warm := int(float64(w.WarmupPages)*o.scale + 0.5)
	warmSessions := makeSessions(rng, max(warm/pagesPerSession, 1), w.Users, w.ZipfA, w.WritePct)
	sessions := makeSessions(rng, max(pages/pagesPerSession, 1), w.Users, w.ZipfA, w.WritePct)

	setupStart := time.Now()
	st, err := buildStack(w, datasetSeed)
	if err != nil {
		return tr, err
	}
	defer st.close()
	warmRes := runPhase(st, warmSessions, w.Clients, 0, nil)
	if warmRes.Failed > 0 {
		return tr, fmt.Errorf("warm-up: %d page loads failed, first: %v", warmRes.Failed, warmRes.FirstErr)
	}
	setupS := time.Since(setupStart).Seconds()

	var t *tracer
	if traced {
		t = newTracer()
		st.p.tr.Store(t)
	}
	before := snapshot(st)
	ph := runPhase(st, sessions, w.Clients, int64(len(warmSessions)*pagesPerSession), t)
	after := snapshot(st)
	st.p.tr.Store(nil)
	heapMB := liveHeapMB()

	au, err := audit(st)
	if err != nil {
		return tr, err
	}
	tr.Pages, tr.Failed, tr.Retries, tr.Audit = ph.Pages, ph.Failed, ph.Retries, au
	tr.StealFrac = float64(after.stealTicks-before.stealTicks) / 100 /
		(ph.Elapsed.Seconds() * float64(runtime.NumCPU()))
	tr.Disturbed = tr.StealFrac > maxStealFrac
	if ph.FirstErr != nil {
		tr.FirstError = ph.FirstErr.Error()
	}
	if !traced {
		tr.Metrics = endToEnd(ph, before, after, setupS, heapMB, au)
		return tr, nil
	}
	ts := t.summarize()
	tr.Metrics = perLayer(st, ph, before, after, ts, au)
	tr.Metrics["pages_per_s"] = metric{float64(ph.Pages) / ph.Elapsed.Seconds(), "1/s", ph.Pages}
	tr.SelfUsPerPage, tr.BackgroundUsPerPage = decompose(st, ts)
	if index > 0 {
		return tr, nil // one span dump per run bounds the disk a long campaign uses
	}
	tr.SpansFile = filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv.gz", w.Name, o.seed))
	if err := t.writeSpans(tr.SpansFile); err != nil {
		return tr, fmt.Errorf("write spans: %w", err)
	}
	return tr, nil
}

// decompose names the traced run's per-page self times by module: the
// logical-cache wrapper is the cluster ring when there is one and the
// kvcache store otherwise.
func decompose(st *stack, ts traceSummary) (self, background map[string]float64) {
	names := layerNames
	names[layerPage] = "unattributed"
	names[layerCache] = "kvcache"
	if st.ring != nil {
		names[layerCache] = "cluster"
	}
	self, background = map[string]float64{}, map[string]float64{}
	pages := float64(max(ts.Pages, 1))
	for ly := layer(0); ly < numLayers; ly++ {
		if ly == layerNode && len(st.pools) == 0 {
			continue
		}
		self[names[ly]] = float64(ts.SelfPage[ly]) / 1e3 / pages
		if ts.SelfBackground[ly] > 0 {
			background[names[ly]] = float64(ts.SelfBackground[ly]) / 1e3 / pages
		}
	}
	return self, background
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res := result{Workload: w, Seed: o.seed, Traced: o.trace, Seconds: o.seconds, Env: currentEnv()}
	fmt.Fprintf(stdout, "pagebench workload=%s seed=%d trace=%v gomaxprocs=%d num_cpu=%d go=%s commit=%s\n",
		w.Name, o.seed, o.trace, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.GoVersion, res.Env.Commit)
	cfg, _ := json.Marshal(w)
	fmt.Fprintf(stdout, "stack %s\n", cfg)

	start := time.Now()
	var plain, traced []trialResult
	for i := 0; ; i++ {
		trialSeed := o.seed*1_000_003 + int64(i)
		tr, err := runTrial(w, o, i, trialSeed, false)
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		plain = append(plain, tr)
		printTrial(stdout, tr)
		if o.trace {
			tt, err := runTrial(w, o, i, trialSeed, true)
			if err != nil {
				return fmt.Errorf("traced trial %d: %w", i, err)
			}
			traced = append(traced, tt)
			printTrial(stdout, tt)
		}
		// Stop when another trial of the mean length would overrun.
		if elapsed := time.Since(start).Seconds(); elapsed*float64(i+2)/float64(i+1) > o.seconds {
			break
		}
	}
	res.Trials = append(plain, traced...)
	names := endToEndMetrics
	if o.trace {
		names = perLayerMetrics
	}
	res.Metrics = summarizeTrials(plain, traced, o.trace)

	for _, tr := range res.Trials {
		res.Attempted += tr.Pages
		res.Failed += tr.Failed
		if tr.Disturbed {
			res.Disturbed++
		}
		if tr.Audit.Keys == 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("trial %d: audit visited no key", tr.Index))
		}
		if want := max(int(float64(w.Pages)*o.scale+0.5)/pagesPerSession, 1) * pagesPerSession; tr.Pages != want {
			res.Problems = append(res.Problems, fmt.Sprintf("trial %d served %d pages, want %d", tr.Index, tr.Pages, want))
		}
		if tr.Failed > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("trial %d: %d page loads failed: %s", tr.Index, tr.Failed, tr.FirstError))
		}
	}
	for _, n := range names {
		if _, ok := res.Metrics[n]; !ok {
			res.Problems = append(res.Problems, "metric "+n+" not measured")
		}
	}
	res.Correct = len(res.Problems) == 0
	printSummary(stdout, res, names)

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	resultFile := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, o.seed, boolInt(o.trace)))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultFile, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result file %s\n", resultFile)

	last := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	ms := map[string]map[string]any{}
	for _, n := range names {
		if m, ok := res.Metrics[n]; ok {
			ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	last["metrics"] = ms
	b, err = json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxStealFrac is the steal time above which a trial is disturbed (see the
// package doc). Undisturbed trials on a shared 2-vCPU virtual machine
// showed under 1%.
const maxStealFrac = 0.01

// undisturbed returns the trials that were not disturbed, or all of them
// when every one was.
func undisturbed(trials []trialResult) []trialResult {
	var out []trialResult
	for _, tr := range trials {
		if !tr.Disturbed {
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		return trials
	}
	return out
}

// summarizeTrials reports the median of each metric over the undisturbed
// trials (the traced ones for per-layer metrics), with the samples of the
// trials it used. trace.overhead_frac compares the traced and untraced
// pages_per_s medians.
func summarizeTrials(plain, traced []trialResult, tracing bool) map[string]metric {
	plain, traced = undisturbed(plain), undisturbed(traced)
	src := plain
	if tracing {
		src = traced
	}
	out := map[string]metric{}
	vals := map[string][]float64{}
	for _, tr := range src {
		for n, m := range tr.Metrics {
			vals[n] = append(vals[n], m.Value)
			agg := out[n]
			agg.Unit = m.Unit
			agg.Samples += m.Samples
			out[n] = agg
		}
	}
	for n, v := range vals {
		m := out[n]
		m.Value = median(v)
		out[n] = m
	}
	if tracing {
		var p, t []float64
		for _, tr := range plain {
			p = append(p, tr.Metrics["pages_per_s"].Value)
		}
		for _, tr := range traced {
			t = append(t, tr.Metrics["pages_per_s"].Value)
		}
		out["trace.overhead_frac"] = metric{1 - median(t)/median(p), "fraction", len(p) + len(t)}
	}
	return out
}

func printTrial(w io.Writer, tr trialResult) {
	kind := "untraced"
	if tr.Traced {
		kind = "traced"
	}
	if tr.Disturbed {
		kind += ", disturbed"
	}
	fmt.Fprintf(w, "trial %d (%s, seed %d, steal %.3f): %d pages, %d failed, %d retried, audit %d keys / %d stale\n",
		tr.Index, kind, tr.Seed, tr.StealFrac, tr.Pages, tr.Failed, tr.Retries, tr.Audit.Keys, tr.Audit.Stale)
	var objs []string
	for name, oa := range tr.Audit.ByObject {
		if oa.Stale > 0 {
			objs = append(objs, fmt.Sprintf("%s %d/%d", name, oa.Stale, oa.Keys))
		}
	}
	sort.Strings(objs)
	if len(objs) > 0 {
		fmt.Fprintf(w, "  stale by object: %s (e.g. %s)\n", strings.Join(objs, ", "),
			strings.Join(tr.Audit.StaleKeys[:min(len(tr.Audit.StaleKeys), 8)], " "))
	}
	if tr.Traced {
		var parts []string
		sum := 0.0
		for _, n := range sortedKeys(tr.SelfUsPerPage) {
			parts = append(parts, fmt.Sprintf("%s %.2f", n, tr.SelfUsPerPage[n]))
			sum += tr.SelfUsPerPage[n]
		}
		fmt.Fprintf(w, "  self us/page: %s = %.2f (mean traced page %.2f us)\n",
			strings.Join(parts, " + "), sum, tr.Metrics["trace.page_us"].Value)
		parts = parts[:0]
		for _, n := range sortedKeys(tr.BackgroundUsPerPage) {
			parts = append(parts, fmt.Sprintf("%s %.2f", n, tr.BackgroundUsPerPage[n]))
		}
		if len(parts) > 0 {
			fmt.Fprintf(w, "  off-page self us/page: %s\n", strings.Join(parts, ", "))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printSummary prints every measured metric, the reported ones first,
// each with its unit and sample count.
func printSummary(w io.Writer, res result, names []string) {
	reported := map[string]bool{}
	for _, n := range names {
		reported[n] = true
		if m, ok := res.Metrics[n]; ok {
			fmt.Fprintf(w, "metric %-32s %14.6g %-8s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	for _, n := range sortedKeys(res.Metrics) {
		if !reported[n] {
			m := res.Metrics[n]
			fmt.Fprintf(w, "extra  %-32s %14.6g %-8s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Fprintf(w, "disturbed trials (steal above %.0f%%, left out of the medians unless all were): %d of %d\n",
		maxStealFrac*100, res.Disturbed, len(res.Trials))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}
