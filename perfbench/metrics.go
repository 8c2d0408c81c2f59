package main

import (
	"fmt"
	"regexp"
)

// Metric is one reported figure: its name, unit, the direction that is
// better, and — for end-to-end metrics — the share of the parent's
// median by which it may worsen before a change counts as a
// regression. BENCHMARK.json at the repository root lists the same
// table; TestBenchmarkJSONMatchesTables keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them (see README.md
// for what "set-up" and "a simulated operation" mean per workload).
var endToEnd = []Metric{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_ops_per_s", "op/s", "higher", 0.25},
	{"peak_mem_mb", "MiB", "lower", 0.15},
}

// benchIDs is the §5 experiment set paper-eval runs, in xc.BenchIDs
// order. A run fails if the façade's list differs: the benchmark's
// metric set and reference digest are defined over exactly these.
var benchIDs = []string{
	"breakdown", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c",
	"fig8", "fig9", "smp", "spawn", "surface", "table1",
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload never calls reads 0.
var perLayer = func() []Metric {
	ms := []Metric{
		{"cluster.new_s", "s", "lower", 0},
		{"cluster.run_s", "s", "lower", 0},
		{"cluster.ns_per_event", "ns", "lower", 0},
		{"cluster.events", "count", "lower", 0},
		{"cluster.w1_run_s", "s", "lower", 0},
		{"cluster.parallel_speedup", "ratio", "higher", 0},
		{"cluster.completed", "count", "higher", 0},
		{"cluster.dropped", "count", "lower", 0},
		{"cluster.erred", "count", "lower", 0},
		{"cluster.migrations", "count", "lower", 0},
		{"ingress.calls", "count", "lower", 0},
		{"ingress.retries", "count", "lower", 0},
		{"ingress.timeouts", "count", "lower", 0},
		{"ingress.hedges", "count", "lower", 0},
		{"ingress.hedge_wins", "count", "higher", 0},
		{"ingress.hedge_useful_ratio", "ratio", "higher", 0},
		{"ingress.handshakes", "count", "lower", 0},
		{"chaos.probes_sent", "count", "lower", 0},
		{"chaos.ejections", "count", "lower", 0},
		{"chaos.readmissions", "count", "lower", 0},
		{"deploy.upgraded", "count", "higher", 0},
		{"xc.report_s", "s", "lower", 0},
		{"runtimes.setup_s", "s", "lower", 0},
		{"runtimes.smp_run_s", "s", "lower", 0},
		{"runtimes.smp_w1_run_s", "s", "lower", 0},
		{"runtimes.smp_speedup", "ratio", "higher", 0},
		{"arch.instructions", "count", "lower", 0},
		{"arch.ns_per_instr", "ns", "lower", 0},
		{"arch.raw_syscalls", "count", "lower", 0},
		{"arch.vsyscall_calls", "count", "higher", 0},
		{"abom.patches", "count", "higher", 0},
		{"arch.block_hits", "count", "higher", 0},
		{"arch.block_misses", "count", "lower", 0},
		{"arch.block_invalidations", "count", "lower", 0},
		{"arch.superblock_hits", "count", "higher", 0},
		{"arch.superblock_side_exits", "count", "lower", 0},
	}
	for _, id := range benchIDs {
		ms = append(ms, Metric{"bench." + id + "_s", "s", "lower", 0})
	}
	return append(ms,
		Metric{"go.alloc_mb", "MiB", "lower", 0},
		Metric{"go.gc_cycles", "count", "lower", 0},
		// Self time per layer inside the traced measured phase, and the
		// traced-minus-untraced run time.
		Metric{"self.cluster_s", "s", "lower", 0},
		Metric{"self.runtimes_s", "s", "lower", 0},
		Metric{"self.bench_s", "s", "lower", 0},
		Metric{"self.xc_s", "s", "lower", 0},
		Metric{"self.harness_s", "s", "lower", 0},
		Metric{"trace.run_s", "s", "lower", 0},
		Metric{"trace.overhead_s", "s", "lower", 0},
	)
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetricNames rejects a metric set whose names or units fall
// outside the result format, or that names one metric twice.
func checkMetricNames(ms []Metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}
