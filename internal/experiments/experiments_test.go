package experiments

import (
	"strings"
	"testing"
)

func testRunner() *Runner {
	return NewRunner(Options{Scale: 40_000, Seed: 1})
}

func TestRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig1", "fig3", "fig7", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "table1", "headline"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := Get("fig99"); err == nil {
		t.Error("Get accepted unknown id")
	}
}

func TestRunnerMemoises(t *testing.T) {
	r := testRunner()
	if _, err := Fig11(r); err != nil {
		t.Fatal(err)
	}
	n := r.runs.Len()
	if _, err := Fig12(r); err != nil { // same sweep: no new runs
		t.Fatal(err)
	}
	if r.runs.Len() != n {
		t.Errorf("Fig12 re-ran the Fig11 sweep: %d -> %d cached runs", n, r.runs.Len())
	}
}

func TestFig01Properties(t *testing.T) {
	r := testRunner()
	tabs, err := Fig01(r)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	// Each benchmark's stride shares sum to ~100%.
	for _, row := range tab.Rows {
		sum := 0.0
		for _, v := range row.Cells {
			if v < 0 {
				t.Errorf("%s: negative share %v", row.Name, v)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: stride shares sum to %.1f", row.Name, sum)
		}
	}
	// Stride 0 should dominate the INT aggregate, as in the paper.
	s0, _ := tab.CellByColumn("INT", "s0")
	s9, _ := tab.CellByColumn("INT", "s9")
	if s0 <= s9 {
		t.Errorf("INT stride-0 (%.1f) not dominant over stride-9 (%.1f)", s0, s9)
	}
}

func TestFig03UnboundedBeatsBounded(t *testing.T) {
	r := testRunner()
	f3, err := Fig03(r)
	if err != nil {
		t.Fatal(err)
	}
	f14, err := Fig14(r)
	if err != nil {
		t.Fatal(err)
	}
	unb, _ := f3[0].CellByColumn("Spec95", "vect%")
	bnd, _ := f14[0].CellByColumn("Spec95", "total%")
	if unb+1e-9 < bnd {
		t.Errorf("unbounded vectorizable %.1f%% below bounded %.1f%%", unb, bnd)
	}
	if unb < 10 {
		t.Errorf("unbounded vectorizable only %.1f%%", unb)
	}
}

func TestFig07IdealAtLeastReal(t *testing.T) {
	r := testRunner()
	tabs, err := Fig07(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		real, ideal := row.Cells[0], row.Cells[1]
		if ideal < real*0.98 {
			t.Errorf("%s: ideal IPC %.3f below real %.3f", row.Name, ideal, real)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r := testRunner()
	tabs, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("want 2 tables (4-way, 8-way), got %d", len(tabs))
	}
	t4 := tabs[0]
	if len(t4.Columns) != 9 {
		t.Fatalf("want 9 series, got %v", t4.Columns)
	}
	// At one port the wide bus must not lose to the scalar bus, and V must
	// not lose to IM, on the Spec95 average (the paper's headline shape).
	noim, _ := t4.CellByColumn("Spec95", "1pnoIM")
	im, _ := t4.CellByColumn("Spec95", "1pIM")
	v, _ := t4.CellByColumn("Spec95", "1pV")
	if im < noim*0.98 {
		t.Errorf("1pIM (%.3f) below 1pnoIM (%.3f)", im, noim)
	}
	if v < im*0.98 {
		t.Errorf("1pV (%.3f) below 1pIM (%.3f)", v, im)
	}
	// 8-way must not be slower than 4-way on average for the same mode.
	v8, _ := tabs[1].CellByColumn("Spec95", "1pV")
	if v8 < v*0.95 {
		t.Errorf("8-way 1pV (%.3f) below 4-way 1pV (%.3f)", v8, v)
	}
}

func TestFig12OccupancyDropsWithPorts(t *testing.T) {
	r := testRunner()
	tabs, err := Fig12(r)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := tabs[0].CellByColumn("Spec95", "1pnoIM")
	four, _ := tabs[0].CellByColumn("Spec95", "4pnoIM")
	if four >= one {
		t.Errorf("occupancy did not drop with more ports: 1p=%.1f 4p=%.1f", one, four)
	}
	for _, row := range tabs[0].Rows {
		for i, v := range row.Cells {
			if v < 0 || v > 100 {
				t.Errorf("%s[%s]: occupancy %v out of range", row.Name, tabs[0].Columns[i], v)
			}
		}
	}
}

func TestFig13SharesSum(t *testing.T) {
	r := testRunner()
	tabs, err := Fig13(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		sum := 0.0
		for _, v := range row.Cells {
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: shares sum to %.1f", row.Name, sum)
		}
	}
}

func TestFig15ElementConservation(t *testing.T) {
	r := testRunner()
	tabs, err := Fig15(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		total := row.Cells[0] + row.Cells[1] + row.Cells[2]
		if total < 3.99 || total > 4.01 {
			t.Errorf("%s: element averages sum to %.3f, want 4", row.Name, total)
		}
	}
}

func TestTable1StorageAudit(t *testing.T) {
	tabs, err := Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := tabs[0].CellByColumn("4-way", "total_B")
	if !ok || total != 57856 {
		t.Errorf("extra storage = %v, want 57856 (≈56KB)", total)
	}
}

func TestHeadlineProducesAllRows(t *testing.T) {
	r := testRunner()
	tabs, err := Headline(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) < 10 {
		t.Fatalf("headline rows: %d", len(tabs[0].Rows))
	}
	// Direction checks: memory requests must go down with V.
	for _, row := range tabs[0].Rows {
		if strings.HasPrefix(row.Name, "mem request change") && row.Cells[0] > 0 {
			t.Errorf("%s = %+.1f%%, expected negative", row.Name, row.Cells[0])
		}
		if strings.HasPrefix(row.Name, "validations") && row.Cells[0] <= 0 {
			t.Errorf("%s = %.1f%%, expected positive", row.Name, row.Cells[0])
		}
	}
}

func TestRenderFormatting(t *testing.T) {
	tab := &Table{
		ID: "figX", Title: "demo", Columns: []string{"a", "b"},
		Rows:   []Row{{Name: "go", Cells: []float64{1.5, 2}}, {Name: "INT", Cells: []float64{1, 2}}},
		Format: "%6.2f",
		Notes:  "checkme",
	}
	out := tab.Render()
	for _, want := range []string{"FIGX", "benchmark", "go", "1.50", "paper: checkme", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	r := testRunner()
	for _, e := range All() {
		tabs, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tabs) == 0 {
			t.Errorf("%s: no tables", e.ID)
		}
		for _, tab := range tabs {
			if out := tab.Render(); len(out) < 40 {
				t.Errorf("%s: suspiciously short render", e.ID)
			}
		}
	}
}
