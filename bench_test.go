package specvec

import (
	"runtime"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/pipeline"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// Each benchmark regenerates one figure or table of the paper at reduced
// scale and reports its key aggregate as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. Full-scale
// runs: `go run ./cmd/sdvexp -exp all -scale 1000000`.

const benchScale = 25_000

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1})
}

func runExperiment(b *testing.B, fn func(*experiments.Runner) ([]*experiments.Table, error)) []*experiments.Table {
	b.Helper()
	var tabs []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tabs, err = fn(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tabs
}

func report(b *testing.B, tabs []*experiments.Table, row, col, unit string) {
	b.Helper()
	if v, ok := tabs[0].CellByColumn(row, col); ok {
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFig01StrideDistribution(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig01)
	report(b, tabs, "INT", "s0", "INT-s0-pct")
	report(b, tabs, "FP", "s1", "FP-s1-pct")
}

func BenchmarkFig03Vectorizable(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig03)
	report(b, tabs, "INT", "vect%", "INT-vect-pct")
	report(b, tabs, "FP", "vect%", "FP-vect-pct")
}

func BenchmarkFig07ScalarBlocking(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig07)
	report(b, tabs, "Spec95", "real", "real-IPC")
	report(b, tabs, "Spec95", "ideal", "ideal-IPC")
}

func BenchmarkFig09OffsetMismatch(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig09)
	report(b, tabs, "Spec95", "off!=0%", "offset-nz-pct")
}

func BenchmarkFig10ControlIndependence(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig10)
	report(b, tabs, "INT", "reused%", "INT-reused-pct")
}

func BenchmarkFig11IPC(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig11)
	report(b, tabs, "Spec95", "1pnoIM", "IPC-4w1pnoIM")
	report(b, tabs, "Spec95", "1pIM", "IPC-4w1pIM")
	report(b, tabs, "Spec95", "1pV", "IPC-4w1pV")
}

func BenchmarkFig12PortOccupancy(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig12)
	report(b, tabs, "Spec95", "1pIM", "occ-4w1pIM-pct")
	report(b, tabs, "Spec95", "1pV", "occ-4w1pV-pct")
}

func BenchmarkFig13WideBusEffectiveness(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig13)
	report(b, tabs, "Spec95", "unused", "unused-pct")
	report(b, tabs, "Spec95", "4pos", "fourword-pct")
}

func BenchmarkFig14Validations(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig14)
	report(b, tabs, "INT", "total%", "INT-valid-pct")
	report(b, tabs, "FP", "total%", "FP-valid-pct")
}

func BenchmarkFig15ElementAccounting(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig15)
	report(b, tabs, "Spec95", "used", "elems-used")
	report(b, tabs, "Spec95", "notcomp", "elems-notcomp")
}

func BenchmarkTable1Configs(b *testing.B) {
	tabs := runExperiment(b, experiments.Table1)
	report(b, tabs, "4-way", "total_B", "extra-bytes")
}

func BenchmarkHeadlineSpeedups(b *testing.B) {
	tabs := runExperiment(b, experiments.Headline)
	report(b, tabs, "IPC gain V vs IM (INT) %", "value", "INT-gain-pct")
	report(b, tabs, "IPC gain V vs IM (FP) %", "value", "FP-gain-pct")
}

func BenchmarkVecLenStatistic(b *testing.B) {
	tabs := runExperiment(b, experiments.VecLen)
	report(b, tabs, "INT", "mean-len", "INT-runlen")
	report(b, tabs, "FP", "mean-len", "FP-runlen")
}

func BenchmarkAblation(b *testing.B) {
	tabs := runExperiment(b, experiments.Ablation)
	report(b, tabs, "baseline (V)", "IPC", "baseline-IPC")
	report(b, tabs, "no churn damper", "IPC", "nochurn-IPC")
	report(b, tabs, "range-only conflicts", "IPC", "rangeonly-IPC")
}

// runnerFanout is the shared body of the Runner-mode benchmarks: one
// cold Runner per iteration executing the same 3-mode × 12-benchmark
// fan-out, so Sequential vs Parallel isolates the worker pool.
func runnerFanout(b *testing.B, workers int) {
	b.Helper()
	var specs []experiments.RunSpec
	for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
		cfg := config.MustNamed(4, 1, mode)
		for _, name := range workload.Names() {
			specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: name})
		}
	}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1, Workers: workers})
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkRunnerSequential is the pre-parallelization baseline: one
// simulation at a time (Workers: 1).
func BenchmarkRunnerSequential(b *testing.B) { runnerFanout(b, 1) }

// BenchmarkRunnerParallel runs the identical fan-out on all cores; the
// ratio to BenchmarkRunnerSequential is the worker-pool speedup.
func BenchmarkRunnerParallel(b *testing.B) { runnerFanout(b, runtime.GOMAXPROCS(0)) }

// fig11Specs is the 6-config × 12-benchmark sweep (the Figure 11/12
// shape) shared by the sweep benchmarks.
func fig11Specs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, ports := range []int{1, 2} {
		for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
			cfg := config.MustNamed(4, ports, mode)
			for _, name := range workload.Names() {
				specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: name})
			}
		}
	}
	return specs
}

// BenchmarkSweep runs the Figure 11/12 sweep on one cold Runner per
// iteration: each benchmark is recorded once by a functional pass and
// every configuration replays the recording.
func BenchmarkSweep(b *testing.B) {
	specs := fig11Specs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1})
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkTraceReplay measures raw replay speed: the same simulation as
// BenchmarkSimulatorThroughput, but fed from a recorded trace instead of
// live functional emulation (no machine, no memory image, no
// interpretation on the fetch path).
func BenchmarkTraceReplay(b *testing.B) {
	bench, _ := workload.Get("swim")
	prog := bench.Build(200_000, 1)
	cfg := config.MustNamed(4, 1, config.ModeV)
	mach, err := emu.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 200_000+trace.RecordSlack)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Finish(200_000 + trace.RecordSlack)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr))
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) on the V configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, _ := workload.Get("swim")
	prog := bench.Build(200_000, 1)
	cfg := config.MustNamed(4, 1, config.ModeV)
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		sim, err := pipeline.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}
