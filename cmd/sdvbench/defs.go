package main

import (
	"fmt"
	"runtime"

	"specvec/internal/config"
)

// metricDef describes one metric as BENCHMARK.json lists it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports untraced and
// BENCHMARK.json gates. On a shared 2-vCPU host, in two sets of ten seeded
// runs per workload, peak_rss_mb spread by at most 6.3% of its median
// (interquartile) against its 10% bound. setup_s has the largest bound:
// its floor (absFloor) cannot be written in BENCHMARK.json, and
// served-warm's priming, seconds of simulation, moved up to 12% between
// the sets. pass_s spread by 8-21% there, beyond its 10% bound, so it is
// reported and traced but not gated; see reported.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// absFloor is the smallest worsening, in the metric's unit, that compare
// counts: setup_s may worsen by max(bound, 0.05 s), so that a set-up of a
// few milliseconds is not judged by its scheduling jitter.
var absFloor = map[string]float64{"setup_s": 0.05}

// reported are the end-to-end numbers that are printed, recorded in
// result files and judged by compare, but not gated in BENCHMARK.json:
// pass_s because its run-to-run spread exceeds its bound on a shared host,
// the rest because only some workloads have them.
var reported = []metricDef{
	{"pass_s", "s", "lower", 0.10},
	{"sim_minst_per_s", "Minst/s", "higher", 0.10},
	{"jobs_per_s", "jobs/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"latency_p99_ms", "ms", "lower", 0.10},
}

// fig11Configs are the six Fig. 11 configurations the ladder and
// served-warm use: both widths, one wide port, every mode.
func fig11Configs() []config.Config {
	var out []config.Config
	for _, w := range []int{4, 8} {
		for _, m := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
			out = append(out, config.MustNamed(w, 1, m))
		}
	}
	return out
}

// hotStages are the //sdv:hotpath functions whose cumulative CPU share
// the ladder's pipeline profile reports, keyed by metric stem.
var hotStages = []struct{ stem, sym string }{
	{"step", "pipeline.(*Simulator).step"},
	{"fetch", "pipeline.(*Simulator).fetch"},
	{"decode", "pipeline.(*Simulator).decode"},
	{"issueScalar", "pipeline.(*Simulator).issueScalar"},
	{"issueVector", "pipeline.(*Simulator).issueVector"},
	{"commit", "pipeline.(*Simulator).commit"},
	{"undoNewest", "core.(*Journal).undoNewest"},
	{"Sweep", "core.(*RegFile).Sweep"},
	{"NextRef", "trace.(*Cursor).NextRef"},
}

// workloadLayers are the per-layer metrics a traced workload child
// measures on its own workload. pass_s is the median of its untraced
// passes.
var workloadLayers = []metricDef{
	{Name: "pass_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// perLayerDefs lists every metric a traced run reports: the ladder's,
// named <module>.<metric> in ladder order, then workloadLayers.
func perLayerDefs() []metricDef {
	return append(ladderDefs(), workloadLayers...)
}

// ladderDefs are the metrics of the layer ladder, which does not depend
// on the workload.
func ladderDefs() []metricDef {
	d := []metricDef{
		{Name: "workload.build_s", Unit: "s", Better: "lower"},
		{Name: "wspec.compile_s", Unit: "s", Better: "lower"},
		{Name: "emu.run_s", Unit: "s", Better: "lower"},
		{Name: "emu.minst_per_s", Unit: "Minst/s", Better: "higher"},
		{Name: "trace.record_s", Unit: "s", Better: "lower"},
		{Name: "trace.record_minst_per_s", Unit: "Minst/s", Better: "higher"},
		{Name: "trace.record_over_emu_x", Unit: "x", Better: "lower"},
		{Name: "trace.encode_s", Unit: "s", Better: "lower"},
		{Name: "trace.decode_s", Unit: "s", Better: "lower"},
		{Name: "trace.bytes_per_inst", Unit: "bytes/inst", Better: "lower"},
		{Name: "trace.block_decode_s", Unit: "s", Better: "lower"},
		{Name: "trace.shared_walk_s", Unit: "s", Better: "lower"},
		{Name: "pipeline.run_s", Unit: "s", Better: "lower"},
		{Name: "pipeline.minst_per_s", Unit: "Minst/s", Better: "higher"},
	}
	for _, c := range fig11Configs() {
		d = append(d, metricDef{Name: "pipeline.minst_per_s." + c.Name, Unit: "Minst/s", Better: "higher"})
	}
	d = append(d,
		metricDef{Name: "pipeline.allocs_per_run", Unit: "count", Better: "lower"},
		metricDef{Name: "pipeline.uop_recycle_ratio", Unit: "ratio", Better: "higher"},
	)
	for _, st := range hotStages {
		d = append(d, metricDef{Name: "pipeline.stage." + st.stem + "_frac", Unit: "frac", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "experiments.self_s", Unit: "s", Better: "lower"},
		metricDef{Name: "experiments.parallel_eff", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.healthz_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.warm_self_us", Unit: "us", Better: "lower"},
		metricDef{Name: "server.queue_wait_s", Unit: "s", Better: "lower"},
		metricDef{Name: "server.cache_lookup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "server.compute_s", Unit: "s", Better: "lower"},
		metricDef{Name: "server.sims_per_pass", Unit: "count", Better: "lower"},
		metricDef{Name: "server.recordings_per_pass", Unit: "count", Better: "lower"},
		metricDef{Name: "server.restart_s", Unit: "s", Better: "lower"},
		metricDef{Name: "server.result_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	)
	for _, c := range fig11Configs() {
		d = append(d, metricDef{Name: "model.ipc." + c.Name, Unit: "IPC", Better: "higher"})
	}
	d = append(d,
		metricDef{Name: "model.l1d_miss_rate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "model.branch_mispredict_rate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "model.validation_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "model.validation_failure_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "model.elems_used_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "model.wide_bus_unused_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "model.port_occupancy", Unit: "frac", Better: "lower"},
	)
	return d
}

// warmScale is served-warm's scale, shared by the ladder's daemon phase.
const warmScale = 25_000

// workloadDef is one benchmark workload. Scale sets the balance between
// layers and is never reduced to save time; passes are. setups is how
// many children bring the workload up per run (setup_s is their median):
// nine where set-up takes milliseconds, three where it primes a daemon.
type workloadDef struct {
	name     string
	why      string
	scale    int
	passes   int // 0 = duration-based (the -seconds loop)
	setups   int
	newBench func() bench
}

var workloads = []workloadDef{
	{"paper-sweep", "what researchers run: every paper figure at scale 200k on a fresh Runner, about 80% of it the pipeline cycle loop",
		200_000, 2, 9, func() bench { return &paperSweep{} }},
	{"served-cold", "the same sweep as 14 jobs to a fresh in-process sdvd: service overhead plus disk-tier writes and trace codec",
		200_000, 1, 9, func() bench { return &servedCold{} }},
	{"served-warm", "86 primed jobs replayed by 2 closed-loop clients: only cache hits, isolating HTTP, keying, lookup and JSON",
		warmScale, 0, 3, func() bench { return &servedWarm{} }},
	{"single-runs", "one config over 22 built-in and generated workloads at 1M: no sharing, recording is about 45% of the work",
		1_000_000, 4, 9, func() bench { return &singleRuns{} }},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, workloadNames())
}

// benchWorkers is both GOMAXPROCS and Runner/daemon Workers in a child.
func benchWorkers() int { return min(runtime.NumCPU(), 2) }
