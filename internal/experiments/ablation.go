package experiments

import (
	"specvec/internal/config"
	"specvec/internal/stats"
	"specvec/internal/workload"
)

// Ablation quantifies this reproduction's design choices against the
// paper's literal rules, all on the 4-way one-wide-port V configuration:
//
//   - the churn damper for unstable scalar operands (ours) vs the paper's
//     literal re-create-on-mismatch rule;
//   - the per-element store-conflict check (ours) vs the coarse
//     [first,last] range test;
//   - vector register geometry: length 2/4/8 and file size 32/128/256
//     (the paper argues VL=4 from its measured mean vector lengths and
//     calls the register file "one of the most critical resources");
//   - the TL confidence threshold (the paper fires at 2).
func Ablation(r *Runner) ([]*Table, error) {
	base := config.MustNamed(4, 1, config.ModeV)

	variant := func(name string, cfg config.Config) (Row, error) {
		sims, err := r.RunAll(suiteSpecs(cfg))
		if err != nil {
			return Row{}, err
		}
		var ipcInt, ipcFP, valid, conflicts, insts float64
		var nInt, nFP int
		for i, bn := range workload.Names() {
			st := sims[i]
			b, _ := workload.Get(bn)
			if b.FP {
				ipcFP += st.IPC()
				nFP++
			} else {
				ipcInt += st.IPC()
				nInt++
			}
			valid += st.ValidationFraction()
			conflicts += float64(st.StoreConflicts)
			insts += float64(st.Committed)
		}
		return Row{Name: name, Cells: []float64{
			ipcInt / float64(nInt),
			ipcFP / float64(nFP),
			(ipcInt + ipcFP) / float64(nInt+nFP),
			100 * valid / float64(nInt+nFP),
			1000 * conflicts / insts,
		}}, nil
	}

	variants := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"baseline (V)", func(c *config.Config) {}},
		{"no churn damper", func(c *config.Config) { c.ChurnDamper = false }},
		{"range-only conflicts", func(c *config.Config) { c.RangeOnlyConflicts = true }},
		{"both reverted", func(c *config.Config) { c.ChurnDamper = false; c.RangeOnlyConflicts = true }},
		{"VL=2", func(c *config.Config) { c.VectorLen = 2 }},
		{"VL=8", func(c *config.Config) { c.VectorLen = 8 }},
		{"32 vregs", func(c *config.Config) { c.VectorRegs = 32 }},
		{"256 vregs", func(c *config.Config) { c.VectorRegs = 256 }},
		{"confidence=1", func(c *config.Config) { c.ConfThreshold = 1 }},
		{"confidence=3", func(c *config.Config) { c.ConfThreshold = 3 }},
	}

	// Build each variant's config once (the same value is prefetched and
	// then requested, so the memo keys are guaranteed to match) and submit
	// every suite to the pool before assembling any row, so the whole
	// 10-variant × 12-benchmark sweep runs concurrently.
	cfgs := make([]config.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = base
		v.mutate(&cfgs[i])
	}
	r.Prefetch(suiteSpecs(cfgs...))

	var rows []Row
	for i, v := range variants {
		row, err := variant(v.name, cfgs[i])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return []*Table{{
		ID:      "ablation",
		Title:   "Design-choice ablations, 4-way, 1 wide port (suite means)",
		Columns: []string{"INT-IPC", "FP-IPC", "IPC", "valid%", "cfl/1k"},
		Rows:    rows,
		Format:  "%8.3f",
		Notes:   "reverting the reproduction's refinements shows why they exist; geometry rows justify Table 1's choices",
	}}, nil
}

// VecLen reproduces the §4.1 statistic that motivates VL=4: the average
// length of maximal constant-stride runs per static load ("the average
// vector length for our benchmarks is relatively small: 8.84 for SpecInt
// and 7.37 for SpecFP"). A run is a maximal sequence of dynamic instances
// of one static load whose stride stays constant; runs shorter than 2 are
// unvectorizable noise and are not counted.
func VecLen(r *Runner) ([]*Table, error) {
	names := workload.Names()
	// Each benchmark's walk of its recording is independent; run them on
	// the same worker pool as the cycle-level simulations.
	means := make([]float64, len(names))
	if err := r.each(len(names), func(i int) error {
		m, err := meanRunLength(r, names[i])
		means[i] = m
		return err
	}); err != nil {
		return nil, err
	}
	var rows []Row
	var intLens, fpLens, allLens []float64
	for i, name := range names {
		mean := means[i]
		rows = append(rows, Row{Name: name, Cells: []float64{mean}})
		b, _ := workload.Get(name)
		if b.FP {
			fpLens = append(fpLens, mean)
		} else {
			intLens = append(intLens, mean)
		}
		allLens = append(allLens, mean)
	}
	rows = append(rows,
		Row{Name: "INT", Cells: []float64{stats.GeoMean(intLens)}},
		Row{Name: "FP", Cells: []float64{stats.GeoMean(fpLens)}},
		Row{Name: "Spec95", Cells: []float64{stats.GeoMean(allLens)}},
	)
	return []*Table{{
		ID:      "veclen",
		Title:   "Mean constant-stride run length per static load (§4.1)",
		Columns: []string{"mean-len"},
		Rows:    rows,
		Format:  "%9.2f",
		Notes:   "paper: 8.84 SpecInt / 7.37 SpecFP — small enough that 4-element registers capture most runs",
	}}, nil
}
