package config

import (
	"reflect"
	"testing"
)

func TestTable1FourWay(t *testing.T) {
	c := FourWay()
	if c.FetchWidth != 4 || c.CommitWidth != 4 || c.ROBSize != 128 || c.LSQSize != 32 {
		t.Errorf("4-way core params wrong: %+v", c)
	}
	if c.SimpleInt != 3 || c.IntMulDiv != 2 || c.SimpleFP != 2 || c.FPMulDiv != 1 {
		t.Errorf("4-way FU pools wrong: %+v", c)
	}
	if c.VectorRegs != 128 || c.VectorLen != 4 {
		t.Errorf("vector register file wrong: %+v", c)
	}
	if c.TLSets != 512 || c.TLWays != 4 || c.VRMTSets != 64 || c.VRMTWays != 4 {
		t.Errorf("TL/VRMT geometry wrong: %+v", c)
	}
	if c.StoreCommitLimit != 2 {
		t.Errorf("store commit limit = %d, want 2", c.StoreCommitLimit)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTable1EightWay(t *testing.T) {
	c := EightWay()
	if c.FetchWidth != 8 || c.ROBSize != 256 || c.LSQSize != 64 {
		t.Errorf("8-way core params wrong: %+v", c)
	}
	if c.SimpleInt != 6 || c.IntMulDiv != 3 || c.SimpleFP != 4 || c.FPMulDiv != 2 {
		t.Errorf("8-way FU pools wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestModeTransitions(t *testing.T) {
	c := FourWay().WithMode(ModeV)
	if !c.WideBus || !c.Vectorize {
		t.Errorf("ModeV: %+v", c)
	}
	if c.Mode() != ModeV {
		t.Errorf("Mode() = %v", c.Mode())
	}
	c = c.WithMode(ModeIM)
	if !c.WideBus || c.Vectorize {
		t.Errorf("ModeIM: %+v", c)
	}
	c = c.WithMode(ModeNoIM)
	if c.WideBus || c.Vectorize {
		t.Errorf("ModeNoIM: %+v", c)
	}
}

func TestNames(t *testing.T) {
	c := MustNamed(4, 1, ModeV)
	if c.Name != "4w-1pV" {
		t.Errorf("name = %q", c.Name)
	}
	c = MustNamed(8, 4, ModeNoIM)
	if c.Name != "8w-4pnoIM" {
		t.Errorf("name = %q", c.Name)
	}
}

func TestNamedRejectsBadParams(t *testing.T) {
	if _, err := Named(6, 1, ModeV); err == nil {
		t.Error("width 6 accepted")
	}
	if _, err := Named(4, 3, ModeV); err == nil {
		t.Error("3 ports accepted")
	}
}

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	if len(m) != 18 {
		t.Fatalf("matrix size = %d, want 18", len(m))
	}
	seen := map[string]bool{}
	for _, c := range m {
		if seen[c.Name] {
			t.Errorf("duplicate config %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	// Spot-check ordering: first is 4w-1pnoIM, last is 8w-4pV.
	if m[0].Name != "4w-1pnoIM" || m[17].Name != "8w-4pV" {
		t.Errorf("ordering: first=%q last=%q", m[0].Name, m[17].Name)
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	c := FourWay()
	c.MemPorts = 0
	if err := c.Validate(); err == nil {
		t.Error("0 ports accepted")
	}
	c = FourWay().WithMode(ModeV)
	c.VectorRegs = 0
	if err := c.Validate(); err == nil {
		t.Error("vectorize without vregs accepted")
	}
	c = FourWay()
	c.Mem.DCache.LineBytes = 33
	if err := c.Validate(); err == nil {
		t.Error("bad cache geometry accepted")
	}
}

// TestByName resolves every Matrix name to its configuration without
// allocating, and rejects names outside the matrix.
func TestByName(t *testing.T) {
	for _, want := range Matrix() {
		got, ok := ByName(want.Name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", want.Name, got, ok, want)
		}
	}
	for _, name := range []string{"", "4w-1p-noIM", "4w-3pV", "16w-1pV"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ByName("8w-4pV") }); n != 0 {
		t.Errorf("ByName allocates %.1f times per call, want 0", n)
	}
}
