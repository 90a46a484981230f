// Command sdvsim runs one workload (or an assembly file) on one processor
// configuration and prints the simulation statistics.
//
// Usage:
//
//	sdvsim -workload swim -config 4w-1pV -max 500000
//	sdvsim -workload swim,applu,gcc -parallel 4   # fan out over workloads
//	sdvsim -workload all -config 8w-1pV
//	sdvsim -asm kernel.s -config 8w-2pIM
//	sdvsim -workload swim -trace-record swim.sdvt # record the stream
//	sdvsim -trace-replay swim.sdvt -config 8w-1pV # re-simulate from it
//	sdvsim -workloads            # list available workloads
//
// Configuration names follow the paper: <width>w-<ports>p<mode> with mode
// one of noIM (scalar buses), IM (wide bus) and V (wide bus + speculative
// dynamic vectorization).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"specvec/internal/asm"
	"specvec/internal/cliutil"
	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/isa"
	"specvec/internal/pipeline"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

func main() {
	var (
		wl       = flag.String("workload", "", "benchmark name, comma-separated list, or 'all' (see -workloads)")
		asmFile  = flag.String("asm", "", "assembly file to run instead of a workload")
		cfgName  = flag.String("config", "4w-1pV", "configuration name, e.g. 4w-1pV, 8w-4pnoIM")
		max      = flag.Uint64("max", 500_000, "maximum committed instructions")
		scale    = flag.Int("scale", 500_000, "workload scale (approximate dynamic instructions)")
		seed     = flag.Int64("seed", 1, "workload data seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations when running several workloads")
		listWLs  = flag.Bool("workloads", false, "list workloads and exit")
		listCfgs = flag.Bool("configs", false, "list configurations and exit")
		hotStats = flag.Bool("hotstats", false, "print hot-path pool/journal counters after a single run")
		trcOut   = flag.String("trace-record", "", "record the dynamic instruction stream of a single run to this file")
		trcIn    = flag.String("trace-replay", "", "simulate from a recorded trace file instead of a workload")
		specArg  = flag.String("spec", "", "workload-spec file(s) (YAML/JSON, comma-separated): register their generated workloads; with no -workload, run all of them")
	)
	flag.Parse()

	// Register spec workloads before anything lists or resolves names.
	var specNames []string
	if *specArg != "" {
		paths, err := cliutil.SplitSpecPaths(*specArg)
		if err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		for _, p := range paths {
			f, err := wspec.LoadAndRegister(p)
			if err != nil {
				cliutil.Fatal("sdvsim", err)
			}
			specNames = append(specNames, f.Names()...)
		}
		if *wl == "" && *asmFile == "" && *trcIn == "" {
			// -spec alone means "run the spec's workloads".
			*wl = strings.Join(specNames, ",")
		}
	}

	if *listWLs {
		for _, b := range workload.All() {
			kind := "int"
			if b.FP {
				kind = "fp"
			}
			fmt.Printf("%-9s [%s] %s\n", b.Name, kind, b.Description)
		}
		return
	}
	if *listCfgs {
		for _, c := range config.Matrix() {
			fmt.Println(c.Name)
		}
		return
	}

	if err := cliutil.ValidateRunFlags(*scale, *parallel); err != nil {
		cliutil.Fatal("sdvsim", err)
	}
	if *max == 0 {
		cliutil.Fatal("sdvsim", cliutil.FlagError("max", *max, "> 0"))
	}

	cfg, err := parseConfig(*cfgName)
	if err != nil {
		cliutil.Fatal("sdvsim", err)
	}

	if *trcIn != "" {
		if *wl != "" || *asmFile != "" || *trcOut != "" {
			cliutil.Fatal("sdvsim", fmt.Errorf("-trace-replay runs from the trace alone; drop -workload/-asm/-trace-record"))
		}
		// The trace fixes the workload and its data: the generation knobs
		// have no effect, so flag them the same way -max is flagged for
		// multiple workloads instead of silently ignoring them.
		for _, name := range []string{"seed", "scale"} {
			if cliutil.FlagGiven(flag.CommandLine, name) {
				fmt.Fprintf(os.Stderr, "sdvsim: -%s is ignored with -trace-replay; the trace fixes the workload and its data\n", name)
			}
		}
		if err := replayRun(cfg, *trcIn, *max, *hotStats); err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		return
	}

	var prog *isa.Program
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		prog, err = asm.Assemble(*asmFile, string(src))
		if err != nil {
			cliutil.Fatal("sdvsim", err)
		}
	case *wl != "":
		names, err := workloadNames(*wl)
		if err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		if len(names) > 1 {
			if *trcOut != "" {
				cliutil.Fatal("sdvsim", fmt.Errorf("-trace-record records a single run; got %d workloads", len(names)))
			}
			// The experiments Runner caps every run at -scale; -max only
			// applies to single runs.
			if cliutil.FlagGiven(flag.CommandLine, "max") && *max != uint64(*scale) {
				fmt.Fprintf(os.Stderr, "sdvsim: -max is ignored with multiple workloads; each run commits up to -scale (%d) instructions\n", *scale)
			}
			if err := runSuite(cfg, names, *scale, *seed, *parallel); err != nil {
				cliutil.Fatal("sdvsim", err)
			}
			return
		}
		b, err := workload.Get(names[0])
		if err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		prog = b.Build(*scale, *seed)
	default:
		cliutil.Fatal("sdvsim", fmt.Errorf("need -workload or -asm (see -workloads)"))
	}

	if *trcOut != "" {
		if err := recordTrace(prog, *trcOut, *max); err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		if err := replayRun(cfg, *trcOut, *max, *hotStats); err != nil {
			cliutil.Fatal("sdvsim", err)
		}
		return
	}
	sim, err := pipeline.New(cfg, prog)
	if err != nil {
		cliutil.Fatal("sdvsim", err)
	}
	st, err := sim.Run(*max)
	if err != nil {
		cliutil.Fatal("sdvsim", err)
	}
	printRun(prog.Name, cfg.Name, st, sim, *hotStats)
}

// recordTrace records prog and writes the trace to path. The trace
// extends past the commit limit by more than any configuration's
// in-flight capacity, so a replay under any processor observes exactly
// the records a live run would have.
func recordTrace(prog *isa.Program, path string, maxInsts uint64) error {
	mach, err := emu.New(prog)
	if err != nil {
		return err
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		return err
	}
	tr, err := rec.Finish(int(maxInsts) + trace.RecordSlack)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	state := "halted"
	if tr.Truncated() {
		state = fmt.Sprintf("truncated (replayable up to -max %d)", maxInsts)
	}
	// The announcement goes to stderr so a recording run's stdout stays
	// byte-identical to the live and replayed runs (CI diffs them).
	fmt.Fprintf(os.Stderr, "recorded %d instructions (%d distinct operand tuples, %s) to %s\n",
		tr.Len(), tr.TupleCount(), state, path)
	return nil
}

// replayRun simulates from a recorded trace: no workload, no functional
// emulation, no memory image. A truncated trace too short to feed -max
// fails before simulating, through the same coverage check the
// experiments Runner applies to every run.
func replayRun(cfg config.Config, path string, maxInsts uint64, hotStats bool) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	if err := experiments.CheckCoverage(cfg, tr, maxInsts); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr))
	if err != nil {
		return err
	}
	st, err := sim.Run(maxInsts)
	if err != nil {
		return err
	}
	printRun(tr.Name(), cfg.Name, st, sim, hotStats)
	return nil
}

// printRun renders one run's statistics (identically for live, recorded
// and replayed runs, so outputs can be diffed).
func printRun(prog, cfg string, st *stats.Sim, sim *pipeline.Simulator, hotStats bool) {
	fmt.Printf("program %s on %s\n\n%s", prog, cfg, st.String())
	if hotStats && sim != nil {
		h := sim.HotStats()
		fmt.Printf("\nhot path (steady state allocates nothing: news flat, recycles grow)\n")
		fmt.Printf("uop pool             %d heap / %d recycled\n", h.UopNews, h.UopRecycles)
		fmt.Printf("vop pool             %d heap / %d recycled\n", h.VopNews, h.VopRecycles)
		fmt.Printf("journal depth        %d live undo records\n", h.JournalDepth)
	}
}

// workloadNames expands a -workload argument: one name, a comma-separated
// list, or "all" for the full suite plus any registered spec workloads.
func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		return append(workload.Names(), workload.GeneratedNames()...), nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := workload.Get(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty -workload argument %q", arg)
	}
	return names, nil
}

// runSuite fans one or more workloads out over the experiments Runner's
// worker pool and prints their statistics in the requested order.
func runSuite(cfg config.Config, names []string, scale int, seed int64, parallel int) error {
	r := experiments.NewRunner(experiments.Options{Scale: scale, Seed: seed, Workers: parallel})
	specs := make([]experiments.RunSpec, len(names))
	for i, n := range names {
		specs[i] = experiments.RunSpec{Cfg: cfg, Bench: n}
	}
	sims, err := r.RunAll(specs)
	if err != nil {
		return err
	}
	for i, st := range sims {
		fmt.Printf("workload %s on %s\n\n%s\n", names[i], cfg.Name, st.String())
	}
	return nil
}

// parseConfig resolves a paper-style configuration name.
func parseConfig(name string) (config.Config, error) {
	if c, ok := config.ByName(name); ok {
		return c, nil
	}
	return config.Config{}, fmt.Errorf("unknown config %q (want e.g. %s)",
		name, strings.Join([]string{"4w-1pV", "8w-4pnoIM"}, ", "))
}
