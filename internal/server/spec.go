package server

import (
	"fmt"

	"specvec/internal/config"
	"specvec/internal/experiments"
	"specvec/internal/stats"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// JobSpec names one unit of servable work: either a full experiment (the
// sdvexp figures/tables) or a single (workload, configuration)
// simulation. The zero values of Scale/Seed resolve to the same
// defaults the batch CLIs use, so a spec submitted with and without
// explicit defaults reuses the same cached runs.
type JobSpec struct {
	// Kind is "experiment" or "sim". Empty is inferred: Exp set implies
	// "experiment", Workload set implies "sim".
	Kind string `json:"kind"`
	// Exp is the experiment id (see GET /v1/experiments). "all" is not
	// accepted server-side: clients submit one job per experiment.
	Exp string `json:"exp,omitempty"`
	// Workload and Config select a single simulation (sim kind), by
	// benchmark name and paper-style configuration name.
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	// Scale and Seed mirror the sdvexp flags of the same names and scope
	// every per-run cache key (see runOptions): changing either is a
	// different result.
	Scale int   `json:"scale,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Specs carries a workload-spec document (internal/wspec, YAML or
	// JSON; Normalize stores the canonical form). Required for the sweep
	// kind; for the sim kind it may define the generated workload being
	// simulated. A generated workload's runs are keyed by the digest of
	// its definition, never just its name.
	Specs string `json:"specs,omitempty"`
}

const (
	KindExperiment = "experiment"
	KindSim        = "sim"
	// KindSweep runs every workload defined by Specs through the
	// headline configurations (experiments.SpecSweep).
	KindSweep = "sweep"
)

// Normalize validates s and resolves every default, returning the
// canonical form used for execution. Two specs that normalize equal
// render the same result from the same runs.
func (s JobSpec) Normalize() (JobSpec, error) {
	switch {
	case s.Kind == "" && s.Exp != "" && s.Workload == "":
		s.Kind = KindExperiment
	case s.Kind == "" && s.Workload != "" && s.Exp == "":
		s.Kind = KindSim
	case s.Kind == "" && s.Specs != "" && s.Exp == "" && s.Workload == "":
		s.Kind = KindSweep
	}
	// Parse and re-canonicalize the workload-spec payload, so two
	// submissions that format the same spec differently are the same
	// spec and a malformed payload fails at submission, not mid-job.
	var specFile *wspec.File
	if s.Specs != "" {
		f, err := wspec.Parse([]byte(s.Specs))
		if err != nil {
			return s, err
		}
		specFile = f
		s.Specs = f.Canonical()
	}
	switch s.Kind {
	case KindExperiment:
		if s.Workload != "" || s.Config != "" {
			return s, fmt.Errorf("experiment spec must not set workload/config")
		}
		if s.Specs != "" {
			return s, fmt.Errorf("experiment results never depend on workload specs: drop specs")
		}
		if s.Exp == "all" {
			return s, fmt.Errorf("exp %q is client-side sugar: submit one job per experiment id", s.Exp)
		}
		if _, err := experiments.Get(s.Exp); err != nil {
			return s, err
		}
	case KindSim:
		if s.Exp != "" {
			return s, fmt.Errorf("sim spec must not set exp")
		}
		if err := s.resolveSimWorkload(specFile); err != nil {
			return s, err
		}
		if s.Config == "" {
			s.Config = "4w-1pV"
		}
		if _, err := configByName(s.Config); err != nil {
			return s, err
		}
	case KindSweep:
		if s.Exp != "" || s.Workload != "" || s.Config != "" {
			return s, fmt.Errorf("sweep spec must not set exp/workload/config")
		}
		if s.Specs == "" {
			return s, fmt.Errorf("sweep spec needs a specs payload (a wspec workload-spec document)")
		}
	default:
		return s, fmt.Errorf("spec needs exactly one of exp (experiment), workload (sim) or specs (sweep)")
	}
	if s.Scale == 0 {
		s.Scale = experiments.DefaultOptions().Scale
	}
	if s.Scale <= 0 {
		return s, fmt.Errorf("invalid scale %d: want > 0", s.Scale)
	}
	if s.Seed == 0 {
		s.Seed = experiments.DefaultOptions().Seed
	}
	return s, nil
}

// resolveSimWorkload checks the sim kind's workload name. A built-in
// always resolves. A generated name must come with its definition: either
// the submission already carries it in Specs, or the daemon loaded it at
// startup (-spec) and its definition is folded into Specs here, so the
// job records the definition it ran.
func (s *JobSpec) resolveSimWorkload(specFile *wspec.File) error {
	for _, n := range workload.Names() {
		if n == s.Workload {
			return nil
		}
	}
	if specFile != nil {
		for _, n := range specFile.Names() {
			if n == s.Workload {
				return nil
			}
		}
		return fmt.Errorf("workload %q is not defined by the submitted specs payload", s.Workload)
	}
	if def, ok := wspec.Lookup(s.Workload); ok {
		f := wspec.File{Version: wspec.Version, Workloads: []wspec.Spec{def}}
		s.Specs = f.Canonical()
		return nil
	}
	_, err := workload.Get(s.Workload)
	if err == nil {
		// Registered in-process but not through wspec: no definition
		// digest to key its runs by, so refuse rather than risk aliasing.
		return fmt.Errorf("workload %q has no spec definition to key the result by", s.Workload)
	}
	return err
}

// runOptions returns the experiments.Options the spec fixes for its
// Runner — the scope of every per-run key it produces: scale and seed
// with defaults resolved and, for a spec
// carrying a workload-spec payload, a resolver that serves the payload's
// generated workloads (each carrying its definition digest) before the
// registry. It also returns the parsed payload (nil without one).
// Execution shape is the scheduler's to add.
func (s JobSpec) runOptions() (experiments.Options, *wspec.File, error) {
	opts := experiments.Options{Scale: s.Scale, Seed: s.Seed}.WithDefaults()
	if s.Specs == "" {
		return opts, nil, nil
	}
	f, err := wspec.Parse([]byte(s.Specs))
	if err != nil {
		return opts, nil, err
	}
	compiled := map[string]workload.Benchmark{}
	for _, w := range f.Workloads {
		compiled[w.Name] = wspec.CompileSpec(w)
	}
	opts.Workloads = func(name string) (workload.Benchmark, error) {
		if b, ok := compiled[name]; ok {
			return b, nil
		}
		return workload.Get(name)
	}
	return opts, f, nil
}

// Title renders the spec for logs and job listings.
func (s JobSpec) Title() string {
	switch s.Kind {
	case KindSim:
		return fmt.Sprintf("sim %s on %s (scale %d, seed %d)",
			s.Workload, s.Config, s.Scale, s.Seed)
	case KindSweep:
		return fmt.Sprintf("sweep over %d spec workloads (scale %d, seed %d)",
			s.specWorkloadCount(), s.Scale, s.Seed)
	}
	return fmt.Sprintf("experiment %s (scale %d, seed %d)",
		s.Exp, s.Scale, s.Seed)
}

func (s JobSpec) specWorkloadCount() int {
	f, err := wspec.Parse([]byte(s.Specs))
	if err != nil {
		return 0
	}
	return len(f.Workloads)
}

// Result is the servable outcome of a job: rendered-table inputs for
// experiments, raw statistics for single simulations, encoded with the
// stable stats.Sim JSON. Every submission renders it afresh from its
// runs.
type Result struct {
	Spec   JobSpec              `json:"spec"`
	Tables []*experiments.Table `json:"tables,omitempty"`
	Stats  *stats.Sim           `json:"stats,omitempty"`
}

// configByName resolves a paper-style configuration name.
func configByName(name string) (config.Config, error) {
	if c, ok := config.ByName(name); ok {
		return c, nil
	}
	return config.Config{}, fmt.Errorf("unknown config %q (see GET /v1/configs)", name)
}
