package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// Experiment is one genieload -experiment target: a figure or table of the
// paper's evaluation (§5) or one of this reproduction's extensions.
type Experiment struct {
	Name  string
	Title string
	// Run executes the experiment, printing its series to opt.Out and
	// writing its BENCH_<name> artifact, if it has one, to the working
	// directory. It returns the experiment's typed result.
	Run func(opt ExpOptions) (any, error)
}

// Experiments is the registry genieload, the root benchmarks and CI
// iterate, in the order -experiment all runs it.
var Experiments = []Experiment{
	{Name: "micro", Title: "§5.3 microbenchmarks", Run: result(Micro)},
	{Name: "effort", Title: "§5.2 programmer effort", Run: result(printEffort)},
	{Name: "exp1", Title: "Experiment 1 (Fig 2a/2b): throughput & latency vs clients",
		Run: result(func(o ExpOptions) ([]Exp1Point, error) { return Exp1(o, nil) })},
	{Name: "table2", Title: "Table 2: per-page-type latency at 15 clients", Run: result(Exp1PageTable)},
	{Name: "exp2", Title: "Experiment 2 (Fig 3a): read/write mix",
		Run: result(func(o ExpOptions) ([]Exp2Point, error) { return Exp2(o, nil) })},
	{Name: "exp3", Title: "Experiment 3 (Fig 3b): zipf skew",
		Run: result(func(o ExpOptions) ([]Exp3Point, error) { return Exp3(o, nil) })},
	{Name: "exp4", Title: "Experiment 4 (Fig 3c): cache size",
		Run: result(func(o ExpOptions) ([]Exp4Point, error) { return Exp4(o, nil) })},
	{Name: "exp4b", Title: "Experiment 4 variant: cache colocated with the database", Run: result(Exp4Colocated)},
	{Name: "exp5", Title: "Experiment 5: trigger overhead under load", Run: result(Exp5)},
	{Name: "exp6", Title: "Experiment 6: sync vs async trigger propagation (invalidation bus)", Run: result(Exp6)},
	{Name: "exp7", Title: "Experiment 7: remote cache tier (real mop/TCP nodes, pooled clients)",
		Run: artifact("exp7", Exp7, nil)},
	{Name: "exp8", Title: "Experiment 8: node failure (circuit breaker, live ring membership)",
		Run: artifact("exp8", Exp8, nil)},
	{Name: "exp9", Title: "Experiment 9: single-node multi-core scaling (lock-striped store)",
		Run: artifact("exp9", Exp9, nil)},
	{Name: "exp10", Title: "Experiment 10: replica-aware cluster tier (R-way replication, failover, key handoff)",
		Run: artifact("exp10", Exp10, func(r Exp10Result) []byte {
			tl, _ := r.Timeline(Exp10Replicas)
			return tl.Metrics
		})},
	{Name: "exp11", Title: "Experiment 11: coordinated distributed load (coordinator + workers over loopback)",
		Run: artifact("exp11", Exp11, func(r Exp11Result) []byte { return r.Metrics })},
	{Name: "exp12", Title: "Experiment 12: crash drill (WAL recovery + recovery-epoch cache flush)",
		Run: artifact("exp12", Exp12, nil)},
	{Name: "exp13", Title: "Experiment 13: hot keys (zipf skew + flash crowd; single-flight)",
		Run: artifact("exp13", Exp13, func(r Exp13Result) []byte {
			p, _ := r.Point("singleflight")
			return p.Metrics
		})},
	{Name: "ablation", Title: "Ablation: template-based invalidation baseline", Run: result(AblationTemplateInvalidation)},
}

// result adapts a typed experiment function to Experiment.Run.
func result[R any](exp func(ExpOptions) (R, error)) func(ExpOptions) (any, error) {
	return func(opt ExpOptions) (any, error) { return exp(opt) }
}

// artifact adapts an experiment whose result is the BENCH_<name>.json
// document: the result is written with WriteArtifact, together with the
// metrics dump prom extracts from it when prom is non-nil.
func artifact[R any](name string, exp func(ExpOptions) (R, error), prom func(R) []byte) func(ExpOptions) (any, error) {
	return func(opt ExpOptions) (any, error) {
		res, err := exp(opt)
		if err != nil {
			return res, err
		}
		var dump []byte
		if prom != nil {
			dump = prom(res)
		}
		base := "BENCH_" + name
		if err := WriteArtifact(base, res, dump); err != nil {
			return res, err
		}
		opt.logf("written to %s.json", base)
		return res, nil
	}
}

// ExperimentNames lists the valid -experiment values: "all", then table's
// names in order.
func ExperimentNames(table []Experiment) string {
	names := []string{"all"}
	for _, e := range table {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

// RunExperiments runs the entry of table called name, or every entry in
// table order for "all", framing each with its title and wall time on
// opt.Out. It stops at the first failing experiment.
func RunExperiments(table []Experiment, name string, opt ExpOptions) error {
	var run []Experiment
	for _, e := range table {
		if name == "all" || e.Name == name {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", name, ExperimentNames(table))
	}
	for _, e := range run {
		opt.logf("\n== %s ==", e.Title)
		start := time.Now()
		if _, err := e.Run(opt); err != nil {
			return fmt.Errorf("%s: %w", e.Title, err)
		}
		opt.logf("-- %s done in %v", e.Title, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// WriteArtifact writes doc as indented JSON to base+".json" and, when prom
// is non-empty, the Prometheus text dump beside it as base+"_metrics.prom"
// (CI uploads both as workflow artifacts). Every marshal, write and close
// error is returned.
func WriteArtifact(base string, doc any, prom []byte) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("workload: marshal %s: %w", base, err)
	}
	err = os.WriteFile(base+".json", append(data, '\n'), 0o644)
	if len(prom) > 0 {
		err = errors.Join(err, os.WriteFile(base+"_metrics.prom", prom, 0o644))
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
