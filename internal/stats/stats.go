package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket counter with an overflow bucket.
type Histogram struct {
	Buckets  []uint64
	Overflow uint64
}

// NewHistogram returns a histogram with n buckets [0,n).
func NewHistogram(n int) *Histogram { return &Histogram{Buckets: make([]uint64, n)} }

// Add increments bucket i (negative or >= len counts as overflow).
func (h *Histogram) Add(i int) { h.AddN(i, 1) }

// AddN adds n to bucket i.
func (h *Histogram) AddN(i int, n uint64) {
	if i < 0 || i >= len(h.Buckets) {
		h.Overflow += n
		return
	}
	h.Buckets[i] += n
}

// Count returns the count in bucket i. Every out-of-range index —
// negative indexes included — addresses the single shared overflow
// bucket, mirroring Add/AddN which route the same indexes there;
// Count(-1) is the idiomatic read of the overflow count (Figure 1's
// "other" column uses it via Fraction). TestHistogramCountContract pins
// this.
func (h *Histogram) Count(i int) uint64 {
	if i < 0 || i >= len(h.Buckets) {
		return h.Overflow
	}
	return h.Buckets[i]
}

// Total returns the sum over all buckets including overflow.
func (h *Histogram) Total() uint64 {
	t := h.Overflow
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// Fraction returns bucket i's share of the total (0 if empty).
func (h *Histogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Count(i)) / float64(t)
}

// Merge adds other's counts into h. Mismatched bucket counts are
// tolerated: counts from buckets beyond h's range spill into h's
// overflow (exactly where AddN would have put them), so no count is ever
// dropped. TestHistogramMergeMismatch pins this.
func (h *Histogram) Merge(other *Histogram) {
	for i, b := range other.Buckets {
		if i < len(h.Buckets) {
			h.Buckets[i] += b
		} else {
			h.Overflow += b
		}
	}
	h.Overflow += other.Overflow
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{Buckets: append([]uint64(nil), h.Buckets...), Overflow: h.Overflow}
}

// Sim aggregates all counters for one simulation run.
type Sim struct {
	// Core progress.
	Cycles    uint64
	Committed uint64 // architectural instructions committed
	Fetched   uint64
	Squashed  uint64 // instructions flushed by store-conflict squashes

	// Instruction mix (committed).
	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranches uint64
	CommittedArith    uint64

	// Branch prediction.
	BranchMispredicts uint64
	JumpMispredicts   uint64

	// Memory system.
	MemAccesses     uint64 // data-port acquisitions (the paper's "memory requests")
	ScalarAccesses  uint64 // accesses serving scalar loads/stores
	VectorAccesses  uint64 // accesses issued by vector load instances
	StoreAccesses   uint64
	LoadsMerged     uint64 // extra loads served by an already-issued wide access
	PortBusyCycles  uint64 // sum over ports of busy cycles
	L1DHits         uint64
	L1DMisses       uint64
	L1IHits         uint64
	L1IMisses       uint64
	L2Hits          uint64
	L2Misses        uint64
	Writebacks      uint64
	MSHRStallCycles uint64

	// Stride profile (Figure 1): bucket = |stride| in elements, 0..9.
	StrideHist *Histogram

	// Dynamic vectorization (Figures 3, 14).
	VectorLoadInstances  uint64 // vector load instances dispatched
	VectorArithInstances uint64 // vector arithmetic instances dispatched
	LoadValidations      uint64 // committed load validations
	ArithValidations     uint64 // committed arithmetic validations
	ValidationFailures   uint64 // validations that fell back to scalar
	StoreConflicts       uint64 // stores hitting a vector register range (§3.6)
	VRegAllocFailures    uint64 // vectorization skipped: no free register
	DecodeBlockCycles    uint64 // decode stalls on not-ready scalar operand (Fig. 7)

	// Vector element accounting (Figure 15), accumulated at register free.
	ElemsComputedUsed   uint64
	ElemsComputedUnused uint64
	ElemsNotComputed    uint64
	VRegsFreed          uint64

	// Offsets of vector source operands (Figure 9).
	VectorInstsOffsetZero    uint64
	VectorInstsOffsetNonZero uint64

	// Wide-bus effectiveness (Figure 13): buckets 1..4 words useful; bucket
	// 0 counts speculative accesses whose words were never used.
	WideBusWords *Histogram

	// Control independence (Figure 10): among the first 100 instructions
	// after each mispredicted branch, how many were reusable validations.
	PostMispredictInsts  uint64
	PostMispredictReused uint64
}

// New returns a Sim with histograms allocated.
func New() *Sim {
	return &Sim{
		StrideHist:   NewHistogram(10),
		WideBusWords: NewHistogram(5),
	}
}

// IPC returns committed instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// PortOccupancy returns the busy fraction of the data ports given the
// number of ports in the configuration.
func (s *Sim) PortOccupancy(ports int) float64 {
	if s.Cycles == 0 || ports == 0 {
		return 0
	}
	return float64(s.PortBusyCycles) / float64(s.Cycles*uint64(ports))
}

// BranchMispredictRate returns mispredicts per committed branch.
func (s *Sim) BranchMispredictRate() float64 {
	if s.CommittedBranches == 0 {
		return 0
	}
	return float64(s.BranchMispredicts) / float64(s.CommittedBranches)
}

// Validations returns total committed validations.
func (s *Sim) Validations() uint64 { return s.LoadValidations + s.ArithValidations }

// ValidationFraction returns the share of committed instructions that were
// turned into validations (Figure 14).
func (s *Sim) ValidationFraction() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Validations()) / float64(s.Committed)
}

// MemRequestsPerInst returns data-port requests per committed instruction,
// the metric behind the paper's "15%/20% fewer memory requests".
func (s *Sim) MemRequestsPerInst() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.MemAccesses) / float64(s.Committed)
}

// ElemAverages returns the Figure 15 triple averaged per freed vector
// register: computed&used, computed-not-used, not-computed.
func (s *Sim) ElemAverages() (used, unused, notComp float64) {
	if s.VRegsFreed == 0 {
		return 0, 0, 0
	}
	n := float64(s.VRegsFreed)
	return float64(s.ElemsComputedUsed) / n,
		float64(s.ElemsComputedUnused) / n,
		float64(s.ElemsNotComputed) / n
}

// ControlIndepFraction returns the Figure 10 metric.
func (s *Sim) ControlIndepFraction() float64 {
	if s.PostMispredictInsts == 0 {
		return 0
	}
	return float64(s.PostMispredictReused) / float64(s.PostMispredictInsts)
}

// OffsetNonZeroFraction returns the Figure 9 metric.
func (s *Sim) OffsetNonZeroFraction() float64 {
	total := s.VectorInstsOffsetZero + s.VectorInstsOffsetNonZero
	if total == 0 {
		return 0
	}
	return float64(s.VectorInstsOffsetNonZero) / float64(total)
}

// String renders a readable multi-line summary.
func (s *Sim) String() string {
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }
	w("cycles               %12d", s.Cycles)
	w("committed            %12d  (IPC %.3f)", s.Committed, s.IPC())
	w("  loads              %12d", s.CommittedLoads)
	w("  stores             %12d", s.CommittedStores)
	w("  branches           %12d  (mispredict rate %.2f%%)",
		s.CommittedBranches, 100*s.BranchMispredictRate())
	w("mem requests         %12d  (%.3f per inst)", s.MemAccesses, s.MemRequestsPerInst())
	w("  scalar/vector/store %11s", fmt.Sprintf("%d/%d/%d", s.ScalarAccesses, s.VectorAccesses, s.StoreAccesses))
	w("  merged wide loads  %12d", s.LoadsMerged)
	w("L1D hits/misses      %12d / %d", s.L1DHits, s.L1DMisses)
	w("validations          %12d  (%.1f%% of committed)", s.Validations(), 100*s.ValidationFraction())
	w("  load/arith         %12s", fmt.Sprintf("%d/%d", s.LoadValidations, s.ArithValidations))
	w("  failures           %12d", s.ValidationFailures)
	w("vector instances     %12d  (load %d, arith %d)",
		s.VectorLoadInstances+s.VectorArithInstances, s.VectorLoadInstances, s.VectorArithInstances)
	w("store conflicts      %12d", s.StoreConflicts)
	used, unused, notComp := s.ElemAverages()
	w("vreg elements        used %.2f / unused %.2f / not computed %.2f", used, unused, notComp)
	return sb.String()
}

// Ratio is a small helper for safe division used across experiments.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
func GeoMean(xs []float64) float64 {
	prod, n := 1.0, 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// SortedKeys returns map keys in sorted order (deterministic reports).
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
