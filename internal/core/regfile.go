package core

import (
	"fmt"
	"math/bits"

	"specvec/internal/stats"
)

// ElemState carries the per-element flags of Figure 8. The paper's R
// (Ready) flag is derived: an element is ready when it has been Computed
// by a functional unit or memory, or when it is Skipped — allocated below
// the instance's start offset and never to be produced (§3.4).
type ElemState struct {
	Computed   bool
	ComputedAt uint64 // cycle at which the element's data becomes available
	Skipped    bool
	V          bool // committed data: the element's validation committed
	U          bool // a validation is in flight for this element
	F          bool // architecturally dead: the next write to the logical dest committed
}

// Ready reports the paper's R flag.
func (e ElemState) Ready() bool { return e.Computed || e.Skipped }

// LineUse records one wide-bus line access made by a vector load instance
// and the element indices it supplied (Figure 13 accounting).
type LineUse struct {
	Line  uint64
	Elems []int
}

// VReg is one vector register with its allocation metadata: the MRBB tag
// (§3.3) and, for loads, the accessed address range (§3.6).
type VReg struct {
	id     int // index in the register file (set once at construction)
	InUse  bool
	Epoch  uint64 // bumped on every alloc/free; stale references compare epochs
	PC     uint64
	MRBB   uint64
	IsLoad bool
	Base   uint64 // address of element 0 (loads only)
	Stride int64  // bytes between elements (loads only)
	Start  int    // first element actually computed (initial offset, §3.4)
	Elems  []ElemState

	// pins counts in-flight vector instances reading this register as a
	// source; a pinned register is never reclaimed (the paper's vector
	// datapath holds the physical register until the instance drains).
	pins     int
	lineUses []LineUse
	// lineElems backs the Elems slices of lineUses, so AddLineUse can copy
	// the caller's (reusable) scratch without allocating per use.
	lineElems []int
}

// ElemAddr returns the predicted address of element i (loads).
func (r *VReg) ElemAddr(i int) uint64 { return r.Base + uint64(int64(i)*r.Stride) }

// AddrRange returns the inclusive first/last byte addresses of the
// register's elements (loads; §3.6's two range fields).
func (r *VReg) AddrRange(wordBytes int) (first, last uint64) {
	first = r.Base
	last = r.ElemAddr(len(r.Elems) - 1)
	if last < first {
		first, last = last, first
	}
	return first, last + uint64(wordBytes) - 1
}

// RegFile is the vector register file (Table 1: 128 registers of 4
// elements); unbounded mode grows on demand for the Figure 3 limit study.
type RegFile struct {
	regs      []VReg
	vl        int
	unbounded bool
	sim       *stats.Sim
	inUse     int

	// freeBits is a bitmap of free register ids (bit set = free), so Alloc
	// finds the lowest free id in O(words) instead of scanning every VReg.
	freeBits []uint64

	// Sweep memoization. A full Sweep scans every register and every
	// element; in steady state the file is often full with nothing
	// freeable, and decode retries the scan each time an allocation fails.
	// muts counts mutations that can change any register's freeability
	// (element flags, pins, allocations, releases); after a scan the
	// (muts, gmrbb) pair is recorded, and a repeat Sweep with the same
	// gmrbb and no intervening mutation returns 0 without scanning — the
	// previous pass already freed everything freeable at that state. Every
	// mutation path must bump muts, including journal rollbacks: undoAlloc
	// is reached through the RegFile, and the element-U undo record
	// carries the RegFile pointer for exactly this purpose.
	muts       uint64
	sweepMuts  uint64
	sweepGmrbb uint64
	sweepValid bool
}

// noteMut invalidates the Sweep memo; every mutation that can affect
// freeable must route through it.
func (rf *RegFile) noteMut() { rf.muts++ }

// NewRegFile builds a register file of n registers with vl elements each;
// n <= 0 selects unbounded mode.
func NewRegFile(n, vl int, sim *stats.Sim) *RegFile {
	rf := &RegFile{vl: vl, sim: sim}
	if n <= 0 {
		rf.unbounded = true
		return rf
	}
	rf.regs = make([]VReg, n)
	rf.freeBits = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		rf.regs[i].id = i
		rf.freeBits[i/64] |= 1 << (i % 64)
	}
	return rf
}

func (rf *RegFile) markFree(id int)  { rf.freeBits[id/64] |= 1 << (id % 64) }
func (rf *RegFile) clearFree(id int) { rf.freeBits[id/64] &^= 1 << (id % 64) }

// InUse returns the number of allocated registers.
func (rf *RegFile) InUse() int { return rf.inUse }

// Cap returns the register count (grown count when unbounded).
func (rf *RegFile) Cap() int { return len(rf.regs) }

// Reg returns the register by id (read-mostly accessor for the pipeline).
func (rf *RegFile) Reg(id int) *VReg { return &rf.regs[id] }

// ValidRef reports whether (id, epoch) still names the same allocation.
func (rf *RegFile) ValidRef(id int, epoch uint64) bool {
	return id >= 0 && id < len(rf.regs) && rf.regs[id].InUse && rf.regs[id].Epoch == epoch
}

// Alloc claims a free register for the instruction at pc. start marks the
// first element that will actually be computed; earlier elements are
// Skipped (ready but never produced). Returns ok=false when no register is
// free (the instruction then stays scalar, §3.3). The allocation is
// journalled: undoing it frees the register and bumps the epoch so any
// in-flight vector instance's writes are discarded.
func (rf *RegFile) Alloc(seq, pc, mrbb uint64, isLoad bool, start int, j *Journal) (id int, epoch uint64, ok bool) {
	id = -1
	for w, word := range rf.freeBits {
		if word != 0 {
			id = w*64 + bits.TrailingZeros64(word)
			break
		}
	}
	if id < 0 {
		if !rf.unbounded {
			return -1, 0, false
		}
		rf.regs = append(rf.regs, VReg{id: len(rf.regs)})
		id = len(rf.regs) - 1
		if id/64 >= len(rf.freeBits) {
			rf.freeBits = append(rf.freeBits, 0)
		}
	}
	rf.clearFree(id)
	r := &rf.regs[id]
	r.Epoch++
	r.InUse = true
	r.PC = pc
	r.MRBB = mrbb
	r.IsLoad = isLoad
	r.Base, r.Stride = 0, 0
	r.Start = start
	r.lineUses = r.lineUses[:0]
	r.lineElems = r.lineElems[:0]
	if cap(r.Elems) < rf.vl {
		r.Elems = make([]ElemState, rf.vl)
	} else {
		r.Elems = r.Elems[:rf.vl]
		for i := range r.Elems {
			r.Elems[i] = ElemState{}
		}
	}
	for i := 0; i < start && i < rf.vl; i++ {
		r.Elems[i].Skipped = true
		r.Elems[i].F = true
	}
	rf.inUse++
	rf.noteMut()
	epoch = r.Epoch
	j.pushRegAlloc(seq, rf, id, epoch)
	return id, epoch, true
}

// undoAlloc is the journalled rollback of Alloc: free the register and
// bump its epoch so any in-flight vector instance's writes are discarded.
// A no-op when the allocation was already released (epoch moved on). The
// journal records the register by index — unbounded mode can reallocate
// the regs backing array between push and rewind, so a stored pointer
// would go stale.
func (rf *RegFile) undoAlloc(id int, epoch uint64) {
	r := &rf.regs[id]
	if r.InUse && r.Epoch == epoch {
		r.InUse = false
		r.Epoch++
		rf.inUse--
		rf.markFree(id)
		rf.noteMut()
	}
}

// SetRange records the address window of a vectorized load (§3.6).
func (rf *RegFile) SetRange(id int, base uint64, stride int64) {
	rf.regs[id].Base = base
	rf.regs[id].Stride = stride
}

// MarkComputed flags element elem as produced with its data available at
// cycle at; stale (id, epoch) references are ignored (the register was
// squashed and reallocated).
func (rf *RegFile) MarkComputed(id int, epoch uint64, elem int, at uint64) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	e := &rf.regs[id].Elems[elem]
	e.Computed = true
	e.ComputedAt = at
	rf.noteMut()
}

// ElemReady reports whether element elem's data is available at cycle.
func (rf *RegFile) ElemReady(id int, epoch uint64, elem int, cycle uint64) bool {
	if !rf.ValidRef(id, epoch) {
		return false
	}
	e := rf.regs[id].Elems[elem]
	return e.Computed && e.ComputedAt <= cycle
}

// ElemScheduled reports whether element elem has been scheduled for
// production (its data may still be in flight).
func (rf *RegFile) ElemScheduled(id int, epoch uint64, elem int) bool {
	if !rf.ValidRef(id, epoch) {
		return false
	}
	return rf.regs[id].Elems[elem].Computed
}

// ClearUsed drops the U flag of element elem (a validation abandoned its
// claim by falling back to scalar execution).
func (rf *RegFile) ClearUsed(id int, epoch uint64, elem int) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	rf.regs[id].Elems[elem].U = false
	rf.noteMut()
}

// Pin marks the register as a live source of an in-flight vector instance;
// pinned registers are exempt from reclamation.
func (rf *RegFile) Pin(id int, epoch uint64) {
	if rf.ValidRef(id, epoch) {
		rf.regs[id].pins++
		rf.noteMut()
	}
}

// Unpin releases a Pin.
func (rf *RegFile) Unpin(id int, epoch uint64) {
	if rf.ValidRef(id, epoch) && rf.regs[id].pins > 0 {
		rf.regs[id].pins--
		rf.noteMut()
	}
}

// AddLineUse records a wide-bus line access by a vector load (Figure 13).
// elems is copied: callers may reuse their scratch buffer.
func (rf *RegFile) AddLineUse(id int, epoch uint64, line uint64, elems []int) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	r := &rf.regs[id]
	start := len(r.lineElems)
	r.lineElems = append(r.lineElems, elems...)
	r.lineUses = append(r.lineUses, LineUse{Line: line, Elems: r.lineElems[start:len(r.lineElems):len(r.lineElems)]})
}

// SetUsed marks a validation in flight for element elem (journalled; a
// squash must clear U again).
func (rf *RegFile) SetUsed(seq uint64, id int, epoch uint64, elem int, j *Journal) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	e := &rf.regs[id].Elems[elem]
	j.pushElemU(seq, rf, e)
	e.U = true
	rf.noteMut()
}

// CommitValidation finalises element elem: V set, U cleared (§3.3).
// Commit-side effects are never journalled.
func (rf *RegFile) CommitValidation(id int, epoch uint64, elem int) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	e := &rf.regs[id].Elems[elem]
	e.V = true
	e.U = false
	rf.noteMut()
}

// SetElemFree marks element elem architecturally dead (F flag): the next
// instruction writing the same logical destination committed.
func (rf *RegFile) SetElemFree(id int, epoch uint64, elem int) {
	if !rf.ValidRef(id, epoch) {
		return
	}
	rf.regs[id].Elems[elem].F = true
	rf.noteMut()
}

// freeable implements §3.3's two release conditions, fused into one pass:
// both require every element Ready, condition 1 additionally that every
// element is dead (F), condition 2 that the register's MRBB is no longer
// the global one and no element has a validation in flight or committed
// data still live (V without F).
func (r *VReg) freeable(gmrbb uint64) bool {
	if r.pins > 0 {
		return false
	}
	allDead := true
	stale := r.MRBB != gmrbb
	for i := range r.Elems {
		e := &r.Elems[i]
		if !e.Computed && !e.Skipped { // R flag
			return false
		}
		if !e.F {
			allDead = false
			if e.V {
				stale = false
			}
		}
		if e.U {
			stale = false
		}
	}
	return allDead || stale
}

// Sweep releases every register satisfying a free condition and folds its
// element outcome into the Figure 15 statistics. It returns the number
// freed. The VRMT is not consulted: a freed register that is still mapped
// is detected later through the epoch check. A Sweep repeated with the
// same gmrbb and no intervening mutation is answered from the memo
// without scanning: the previous pass freed everything freeable, so the
// outcome is 0 by construction.
//
//sdv:hotpath
func (rf *RegFile) Sweep(gmrbb uint64) int {
	if rf.sweepValid && rf.sweepGmrbb == gmrbb && rf.sweepMuts == rf.muts {
		return 0
	}
	freed := 0
	for i := range rf.regs {
		r := &rf.regs[i]
		if !r.InUse || !r.freeable(gmrbb) {
			continue
		}
		rf.release(r)
		freed++
	}
	// Record post-scan state: releases above bumped muts, and every
	// register left is unfreeable at this gmrbb until something mutates.
	rf.sweepValid = true
	rf.sweepGmrbb = gmrbb
	rf.sweepMuts = rf.muts
	return freed
}

// Finalize releases every remaining register at end of run so Figure 15
// accounting covers all allocations.
func (rf *RegFile) Finalize() {
	for i := range rf.regs {
		if rf.regs[i].InUse {
			rf.release(&rf.regs[i])
		}
	}
}

func (rf *RegFile) release(r *VReg) {
	for _, e := range r.Elems {
		switch {
		case e.V:
			rf.sim.ElemsComputedUsed++
		case e.Computed:
			rf.sim.ElemsComputedUnused++
		default:
			rf.sim.ElemsNotComputed++
		}
	}
	// Figure 13: attribute each wide-bus line access of a vectorized load
	// to the number of its words that were eventually validated.
	for _, lu := range r.lineUses {
		used := 0
		for _, el := range lu.Elems {
			if r.Elems[el].V {
				used++
			}
		}
		rf.sim.WideBusWords.Add(used) // bucket 0 = speculative, unused
	}
	rf.sim.VRegsFreed++
	r.InUse = false
	r.Epoch++
	r.pins = 0
	rf.inUse--
	rf.markFree(r.id)
	rf.noteMut()
}

// CheckStoreConflict scans allocated load registers for one that the
// committing store invalidates (§3.6). The [first,last] range fields act
// as the hardware's fast filter; within a hit, only elements whose data
// could still be consumed speculatively matter — §3.1 phrases the check
// per element ("the loaded element has not been invalidated by a
// succeeding store"), and an element whose validation has already
// committed (V set) was architecturally read before this store, so
// overwriting its address is harmless. Without the per-element refinement
// every read-modify-write loop (a[i] = f(a[i])) would squash once per
// iteration. Returns the conflicting register id, or -1.
func (rf *RegFile) CheckStoreConflict(addr uint64, wordBytes int) int {
	return rf.checkStoreConflict(addr, wordBytes, false)
}

// CheckStoreConflictRangeOnly applies only the coarse [first,last] filter
// of §3.6 with no per-element refinement (ablation studies).
func (rf *RegFile) CheckStoreConflictRangeOnly(addr uint64, wordBytes int) int {
	return rf.checkStoreConflict(addr, wordBytes, true)
}

func (rf *RegFile) checkStoreConflict(addr uint64, wordBytes int, rangeOnly bool) int {
	end := addr + uint64(wordBytes) - 1
	for i := range rf.regs {
		r := &rf.regs[i]
		if !r.InUse || !r.IsLoad {
			continue
		}
		first, last := r.AddrRange(wordBytes)
		if end < first || addr > last {
			continue
		}
		if rangeOnly {
			return i
		}
		for e := range r.Elems {
			es := &r.Elems[e]
			if es.V || es.Skipped {
				continue
			}
			ea := r.ElemAddr(e)
			if end >= ea && addr <= ea+uint64(wordBytes)-1 {
				return i
			}
		}
	}
	return -1
}

// String summarises occupancy (debugging).
func (rf *RegFile) String() string {
	return fmt.Sprintf("regfile{%d/%d in use, vl=%d}", rf.inUse, len(rf.regs), rf.vl)
}
