// Command sdvexp regenerates the figures and tables of "Speculative
// Dynamic Vectorization" (ISCA 2002).
//
// Usage:
//
//	sdvexp -list
//	sdvexp -exp fig11 [-scale 300000] [-seed 1] [-parallel N]
//	sdvexp -exp all
//	sdvexp -exp fig11 -server http://127.0.0.1:8077
//
// Each experiment prints one or more benchmark × series tables with INT /
// FP / Spec95 aggregate rows, plus the paper's reference values. With
// -server the spec is submitted to a running sdvd daemon and the result
// tables are rendered locally — stdout is byte-identical to a local run
// of the same scale/seed (timing goes to stderr), and repeated
// submissions are served from the daemon's result cache without
// re-simulating.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"specvec/internal/cliutil"
	"specvec/internal/experiments"
	"specvec/internal/server"
	"specvec/internal/wspec"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig1, fig3, fig7, fig9, fig10, fig11, fig12, fig13, fig14, fig15, table1, headline, veclen, ablation) or 'all'")
		scale     = flag.Int("scale", 300_000, "approximate dynamic instructions per run")
		seed      = flag.Int64("seed", 1, "workload data seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = sequential; output is identical either way)")
		serverURL = flag.String("server", "", "submit to a running sdvd daemon at this base URL instead of simulating locally (output is byte-identical)")
		specArg   = flag.String("spec", "", "workload-spec file(s) (YAML/JSON, comma-separated): run the generated workloads through the headline sweep; without an explicit -exp only the sweep runs")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := cliutil.ValidateRunFlags(*scale, *parallel); err != nil {
		cliutil.Fatal("sdvexp", err)
	}

	// Load and register workload specs. The generated workloads are
	// swept separately from the paper's experiments: with -spec alone
	// only the sweep runs; adding an explicit -exp runs both.
	var specFiles []*wspec.File
	if *specArg != "" {
		paths, err := cliutil.SplitSpecPaths(*specArg)
		if err != nil {
			cliutil.Fatal("sdvexp", err)
		}
		for _, p := range paths {
			f, err := wspec.LoadAndRegister(p)
			if err != nil {
				cliutil.Fatal("sdvexp", err)
			}
			specFiles = append(specFiles, f)
		}
	}

	var toRun []experiments.Experiment
	if *specArg == "" || flagSet("exp") {
		if *exp == "all" {
			toRun = experiments.All()
		} else {
			e, err := experiments.Get(*exp)
			if err != nil {
				cliutil.Fatal("sdvexp", err)
			}
			toRun = []experiments.Experiment{e}
		}
	}

	if *serverURL != "" {
		if err := runRemote(*serverURL, toRun, specFiles, *scale, *seed); err != nil {
			cliutil.Fatal("sdvexp", err)
		}
		return
	}

	runner := experiments.NewRunner(experiments.Options{Scale: *scale, Seed: *seed, Workers: *parallel})
	for _, e := range toRun {
		start := time.Now()
		tables, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		render(tables)
		timing(e.ID, start)
	}
	// One sweep per spec file, matching the one-job-per-file served path
	// so local and -server output stay byte-diffable.
	for _, f := range specFiles {
		start := time.Now()
		tables, err := experiments.SpecSweep(runner, f.Names())
		if err != nil {
			fmt.Fprintf(os.Stderr, "specsweep: %v\n", err)
			os.Exit(1)
		}
		render(tables)
		timing("specsweep", start)
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// render prints tables exactly the same way for local and served runs,
// so the two paths are byte-diffable.
func render(tables []*experiments.Table) {
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}

// timing reports wall clock on stderr: it varies run to run, so it must
// not pollute the diffable stdout.
func timing(id string, start time.Time) {
	fmt.Fprintf(os.Stderr, "[%s in %.1fs]\n", id, time.Since(start).Seconds())
}

// runRemote submits one job per experiment — plus one sweep job per
// loaded spec file — to an sdvd daemon and renders the returned tables.
// Each experiment is its own job so the daemon caches — and a later
// invocation reuses — every figure independently; a sweep job carries
// the spec file's canonical form, so its cache entry is addressed by
// workload content, not file name.
func runRemote(base string, toRun []experiments.Experiment, specFiles []*wspec.File, scale int, seed int64) error {
	base = strings.TrimRight(base, "/")
	submit := func(id string, spec server.JobSpec) error {
		start := time.Now()
		tables, view, err := submitAndWait(base, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		render(tables)
		source := view.Source
		if source == "" {
			source = "computed"
		}
		fmt.Fprintf(os.Stderr, "[%s via %s (%s) in %.1fs]\n", id, base, source, time.Since(start).Seconds())
		return nil
	}
	for _, e := range toRun {
		spec := server.JobSpec{Kind: server.KindExperiment, Exp: e.ID, Scale: scale, Seed: seed}
		if err := submit(e.ID, spec); err != nil {
			return err
		}
	}
	for _, f := range specFiles {
		spec := server.JobSpec{Kind: server.KindSweep, Specs: f.Canonical(), Scale: scale, Seed: seed}
		if err := submit("specsweep", spec); err != nil {
			return err
		}
	}
	return nil
}

// submitAndWait posts spec with ?wait=1 and decodes the resolved job.
func submitAndWait(base string, spec server.JobSpec) ([]*experiments.Table, *server.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &apiErr) == nil && apiErr.Error != "" {
			return nil, nil, fmt.Errorf("server: %s", apiErr.Error)
		}
		return nil, nil, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var view server.JobView
	if err := json.Unmarshal(payload, &view); err != nil {
		return nil, nil, fmt.Errorf("decoding job: %w", err)
	}
	if view.State != server.StateDone {
		return nil, nil, fmt.Errorf("job %s resolved %s: %s", view.ID, view.State, view.Error)
	}
	var res server.Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return nil, nil, fmt.Errorf("decoding result: %w", err)
	}
	return res.Tables, &view, nil
}
