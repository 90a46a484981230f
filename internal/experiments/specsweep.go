package experiments

import (
	"fmt"

	"specvec/internal/config"
	"specvec/internal/stats"
)

// SpecSweep runs a set of generated (spec-defined) workloads through the
// paper's headline configurations and tables the results: IPC without
// speculative vectorization, with it at 4- and 8-wide issue, plus the
// validation overhead and memory traffic of the 4-wide SDV machine. The
// names must resolve through the runner (globally registered or supplied
// via Options.Workloads); the sweep deliberately does not touch
// workload.Names(), so the paper's figure suite keeps its shape no
// matter what specs are loaded.
func SpecSweep(r *Runner, names []string) ([]*Table, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("experiments: spec sweep: no workloads")
	}
	configs := []config.Config{
		config.MustNamed(4, 1, config.ModeNoIM),
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
		config.MustNamed(8, 1, config.ModeV),
	}
	var specs []RunSpec
	for _, cfg := range configs {
		for _, n := range names {
			specs = append(specs, RunSpec{Cfg: cfg, Bench: n})
		}
	}
	sims, err := r.RunAll(specs)
	if err != nil {
		return nil, err
	}
	sim := func(c, b int) *stats.Sim { return sims[c*len(names)+b] }

	var rows []Row
	var intAgg, fpAgg, allAgg [][]float64
	for bi, name := range names {
		sdv := sim(2, bi)
		vals := []float64{
			sim(0, bi).IPC(),
			sim(1, bi).IPC(),
			sdv.IPC(),
			sim(3, bi).IPC(),
			100 * sdv.ValidationFraction(),
			sdv.MemRequestsPerInst(),
		}
		rows = append(rows, Row{Name: name, Cells: vals})
		b, err := r.opts.Resolve(name)
		if err != nil {
			return nil, err
		}
		if b.FP {
			fpAgg = append(fpAgg, vals)
		} else {
			intAgg = append(intAgg, vals)
		}
		allAgg = append(allAgg, vals)
	}
	rows = appendAggregates(rows, intAgg, fpAgg, allAgg)
	return []*Table{{
		ID:      "specsweep",
		Title:   "Generated workloads: IPC across modes (1 wide port), SDV overheads at 4-way",
		Columns: []string{"4w-noIM", "4w-IM", "4w-V", "8w-V", "val%", "mem/inst"},
		Rows:    rows, Format: "%8.3f",
		Notes: "workloads compiled from a declarative spec (internal/wspec); " +
			"val% and mem/inst are measured on the 4w-V configuration",
	}}, nil
}
