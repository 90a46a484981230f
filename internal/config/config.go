package config

import (
	"fmt"

	"specvec/internal/branch"
	"specvec/internal/mem"
)

// Mode selects the memory/vectorization variant of a configuration, using
// the paper's naming: noIM = scalar buses, IM = wide buses ("intelligent
// memory"), V = wide buses + speculative dynamic vectorization.
type Mode int

const (
	ModeNoIM Mode = iota
	ModeIM
	ModeV
)

// String renders the paper's suffix for the mode.
func (m Mode) String() string {
	switch m {
	case ModeNoIM:
		return "noIM"
	case ModeIM:
		return "IM"
	case ModeV:
		return "V"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config is the full parameter set for one simulated processor.
type Config struct {
	Name string

	// Pipeline widths and windows (Table 1).
	FetchWidth  int // instructions per cycle, up to 1 taken branch
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	ROBSize     int // "instruction window size"
	LSQSize     int
	IQSize      int // scalar issue-queue capacity
	VIQSize     int // vector issue-queue capacity

	// Scalar functional-unit pools.
	SimpleInt int
	IntMulDiv int
	SimpleFP  int
	FPMulDiv  int

	// Memory ports.
	MemPorts int
	WideBus  bool
	// MaxLoadsPerWideAccess bounds how many pending loads one wide access
	// can serve (§3.7: "only 4 pending loads can be served at the same
	// cycle").
	MaxLoadsPerWideAccess int

	// Dynamic vectorization.
	Vectorize     bool
	VectorRegs    int // 128
	VectorLen     int // 4 elements of 64 bits
	TLSets        int // 512 sets, 4 ways
	TLWays        int
	VRMTSets      int // 64 sets, 4 ways
	VRMTWays      int
	ConfThreshold int // confidence needed to fire vectorization (2)
	// Unbounded lifts TL/VRMT/register-file capacity limits (Figure 3's
	// "unbounded resources" experiment).
	Unbounded bool
	// BlockScalarOperand controls whether a vector×scalar instruction whose
	// scalar register is not ready blocks decode (§3.2, Figure 7). The
	// "ideal" bars of Figure 7 set this to false.
	BlockScalarOperand bool
	// ChurnDamper enables the scalar-operand churn cooldown, a refinement
	// of this reproduction; disabling it reverts to the paper's literal
	// re-create-on-mismatch rule. The "ablation" experiment measures both.
	ChurnDamper bool
	// RangeOnlyConflicts reverts the store coherence check to the coarse
	// [first,last] range of §3.6, without the per-element validated-
	// element refinement. Ablation only.
	RangeOnlyConflicts bool

	// Commit constraints.
	StoreCommitLimit int // ≤2 stores per cycle (§3.6)

	// Branch prediction and recovery.
	Branch            branch.Config
	MispredictPenalty int // extra front-end redirect cycles after resolution

	// Memory hierarchy.
	Mem mem.HierarchyConfig
}

// FourWay returns the 4-way configuration of Table 1 (1 port, scalar bus,
// no vectorization; use the With* helpers or Named for variants).
func FourWay() Config {
	return Config{
		Name:        "4w-1p-noIM",
		FetchWidth:  4,
		DecodeWidth: 4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROBSize:     128,
		LSQSize:     32,
		IQSize:      64,
		VIQSize:     32,
		SimpleInt:   3,
		IntMulDiv:   2,
		SimpleFP:    2,
		FPMulDiv:    1,
		MemPorts:    1,

		MaxLoadsPerWideAccess: 4,

		VectorRegs:         128,
		VectorLen:          4,
		TLSets:             512,
		TLWays:             4,
		VRMTSets:           64,
		VRMTWays:           4,
		ConfThreshold:      2,
		BlockScalarOperand: true,
		ChurnDamper:        true,

		StoreCommitLimit:  2,
		Branch:            branch.DefaultConfig(),
		MispredictPenalty: 3,
		Mem:               mem.DefaultHierarchy(),
	}
}

// EightWay returns the 8-way configuration of Table 1.
func EightWay() Config {
	c := FourWay()
	c.Name = "8w-1p-noIM"
	c.FetchWidth = 8
	c.DecodeWidth = 8
	c.IssueWidth = 8
	c.CommitWidth = 8
	c.ROBSize = 256
	c.LSQSize = 64
	c.IQSize = 128
	c.VIQSize = 64
	c.SimpleInt = 6
	c.IntMulDiv = 3
	c.SimpleFP = 4
	c.FPMulDiv = 2
	return c
}

// WithPorts returns a copy with n L1 data ports.
func (c Config) WithPorts(n int) Config {
	c.MemPorts = n
	return c.rename()
}

// WithMode returns a copy configured for the given paper mode.
func (c Config) WithMode(m Mode) Config {
	switch m {
	case ModeNoIM:
		c.WideBus = false
		c.Vectorize = false
	case ModeIM:
		c.WideBus = true
		c.Vectorize = false
	case ModeV:
		c.WideBus = true
		c.Vectorize = true
	}
	return c.rename()
}

// Mode returns the paper mode this configuration corresponds to.
func (c Config) Mode() Mode {
	switch {
	case c.Vectorize:
		return ModeV
	case c.WideBus:
		return ModeIM
	default:
		return ModeNoIM
	}
}

func (c Config) rename() Config {
	c.Name = fmt.Sprintf("%dw-%dp%s", c.FetchWidth, c.MemPorts, c.Mode())
	return c
}

// Named builds the configuration for (width, ports, mode); width must be 4
// or 8 and ports 1, 2 or 4, matching the evaluation sweep.
func Named(width, ports int, mode Mode) (Config, error) {
	var c Config
	switch width {
	case 4:
		c = FourWay()
	case 8:
		c = EightWay()
	default:
		return Config{}, fmt.Errorf("config: unsupported width %d", width)
	}
	switch ports {
	case 1, 2, 4:
	default:
		return Config{}, fmt.Errorf("config: unsupported port count %d", ports)
	}
	return c.WithPorts(ports).WithMode(mode), nil
}

// MustNamed is Named for static experiment tables; it panics on error.
func MustNamed(width, ports int, mode Mode) Config {
	c, err := Named(width, ports, mode)
	if err != nil {
		panic(err)
	}
	return c
}

// Matrix returns the 18 configurations of Figures 11 and 12 in
// presentation order: for each width (4, 8) and port count (1, 2, 4), the
// noIM, IM and V variants.
func Matrix() []Config {
	var out []Config
	for _, width := range []int{4, 8} {
		for _, ports := range []int{1, 2, 4} {
			for _, mode := range []Mode{ModeNoIM, ModeIM, ModeV} {
				out = append(out, MustNamed(width, ports, mode))
			}
		}
	}
	return out
}

// matrix is Matrix built once, for ByName: a Config is a pure value, so
// handing out copies of it is safe.
var matrix = Matrix()

// ByName returns the Matrix configuration called name (e.g. "4w-1pV"),
// without building the matrix again.
func ByName(name string) (Config, bool) {
	for _, c := range matrix {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Validate performs basic sanity checks.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.CommitWidth <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("config %q: non-positive widths", c.Name)
	}
	if c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("config %q: non-positive windows", c.Name)
	}
	if c.MemPorts <= 0 {
		return fmt.Errorf("config %q: no memory ports", c.Name)
	}
	if c.Vectorize && !c.Unbounded {
		if c.VectorRegs <= 0 || c.VectorLen <= 0 {
			return fmt.Errorf("config %q: vectorization without vector registers", c.Name)
		}
	}
	if err := c.Mem.ICache.Validate(); err != nil {
		return err
	}
	if err := c.Mem.DCache.Validate(); err != nil {
		return err
	}
	return c.Mem.L2.Validate()
}
