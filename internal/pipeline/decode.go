package pipeline

import (
	"specvec/internal/core"
	"specvec/internal/isa"
)

// decode renames and dispatches up to DecodeWidth instructions per cycle
// in program order, driving the SDV engine: TL updates, vectorization
// triggering, conversion into validations, operand checks, and the
// scalar-operand decode block of §3.2.
//
//sdv:hotpath
func (s *Simulator) decode() {
	for n := 0; n < s.cfg.DecodeWidth && s.fetchBuf.len() > 0; n++ {
		u := s.fetchBuf.front()
		if s.robFull() || len(s.iq) >= s.cfg.IQSize {
			return
		}
		if u.d.Inst.IsMem() && s.lsq.len() >= s.cfg.LSQSize {
			return
		}

		// Capture in-flight producers for the register sources.
		srcs, nsrc := u.d.Inst.SrcRegs()
		for i := 0; i < nsrc; i++ {
			if srcs[i].IsZero() {
				continue
			}
			if w := s.lastWriter[srcs[i]]; w.inFlight(s.cycle) {
				u.deps[i] = w
			}
		}

		if s.sdvDecode(u) {
			// Vectorized instruction with a not-ready scalar register
			// operand: decode blocks, stalling younger instructions
			// (§3.2, Figure 7).
			s.sim.DecodeBlockCycles++
			return
		}

		s.fetchBuf.popFront()
		s.rob.push(u)
		s.dispatch(u)
		if u.d.Inst.IsMem() {
			u.lsqPos = s.lsq.push(u)
			u.inLSQ = true
			if u.d.Inst.IsStore() {
				s.storePos = append(s.storePos, u.lsqPos)
			}
		}

		if u.d.Inst.WritesReg() {
			rd := u.d.Inst.Rd
			s.lastWriter[rd] = uopRef{u: u, gen: u.gen}
			next := core.VSEntry{}
			if u.isValidation() {
				next = core.VSEntry{IsVector: true, VReg: u.vreg, VEpoch: u.vepoch, Offset: u.elem}
			}
			// Journal only real transitions: most instructions overwrite an
			// already-scalar entry with the scalar state, and undoing a
			// no-op restores nothing.
			if s.vs[rd] != next {
				s.jnl.PushVS(u.d.Seq, &s.vs[rd])
				s.vs[rd] = next
			}
		}
	}
}

// sdvDecode applies the dynamic vectorization rules to one instruction.
// It returns true when decode must stall this cycle (scalar operand not
// ready); in that case no state has been modified.
func (s *Simulator) sdvDecode(u *uop) (blocked bool) {
	in := u.d.Inst
	switch {
	case in.IsLoad():
		obs := s.tl.Observe(u.d.Seq, u.d.PC, u.d.EffAddr(), s.jnl)
		if !obs.FirstSeen && !u.statsCounted {
			s.sim.StrideHist.Add(strideBucket(obs.Stride))
		}
		if s.cfg.Vectorize {
			s.decodeLoadSDV(u, obs.Stride, obs.Confident)
		}
		return false
	case in.IsArith() && s.cfg.Vectorize:
		return s.decodeArithSDV(u)
	default:
		return false
	}
}

// strideBucket converts a byte stride to the element-count bucket of
// Figure 1 (stride divided by the data size); non-word-multiple strides
// fall into the overflow bucket.
func strideBucket(stride int64) int {
	if stride < 0 {
		stride = -stride
	}
	if stride%isa.WordBytes != 0 {
		return -1
	}
	return int(stride / isa.WordBytes)
}

// decodeLoadSDV handles a load: VRMT hit → validation / roll-over /
// misspeculation; VRMT miss with a confident stride → fire vectorization.
func (s *Simulator) decodeLoadSDV(u *uop, stride int64, confident bool) {
	seq, pc := u.d.Seq, u.d.PC
	entry, found := s.vrmt.Lookup(pc)
	if found && !s.vrf.ValidRef(entry.VReg, entry.VEpoch) {
		s.vrmt.InvalidateEntry(seq, entry, s.jnl)
		found = false
	}
	vl := s.cfg.VectorLen

	if found {
		// Capture the mapping before makeValidation/Insert mutate the
		// live entry in place.
		eVReg, eVEpoch, eOffset := entry.VReg, entry.VEpoch, entry.Offset
		r := s.vrf.Reg(eVReg)
		if eOffset >= vl {
			// Register exhausted: generate the next vectorized instance
			// covering the following window (§3.2).
			if r.ElemAddr(vl) == u.d.EffAddr() && s.createVectorLoad(u, r.Stride) {
				return
			}
			if r.ElemAddr(vl) != u.d.EffAddr() {
				s.loadMisspeculation(u, entry)
				return
			}
			s.vrmt.InvalidateEntry(seq, entry, s.jnl) // no free register: back to scalar
			return
		}
		if r.ElemAddr(eOffset) != u.d.EffAddr() {
			s.loadMisspeculation(u, entry)
			return
		}
		nextBase, nextStride := r.ElemAddr(vl), r.Stride
		s.makeValidation(u, kindLoadValidation, eVReg, eVEpoch, eOffset, entry)
		// §3.2: "if the validated element is the last one of the vector, a
		// new instance of the vectorized instruction is dispatched to the
		// vector data-path" — the next window starts prefetching one
		// iteration before its first validation arrives. If no register is
		// free the offset-exhausted path above retries later.
		if eOffset == vl-1 {
			s.dispatchVectorLoad(seq, pc, nextBase, nextStride)
		}
		return
	}

	if confident {
		s.createVectorLoad(u, stride)
	}
}

// loadMisspeculation handles a failed address check: the instance (and
// following ones) execute in scalar mode and the TL must re-learn the
// pattern (§3.1).
func (s *Simulator) loadMisspeculation(u *uop, entry *core.Entry) {
	u.fellBack = true
	s.vrmt.InvalidateEntry(u.d.Seq, entry, s.jnl)
	s.tl.ResetConfidence(u.d.Seq, u.d.PC, s.jnl)
}

// createVectorLoad dispatches a vector-load instance for the next VL
// addresses and turns u into the validation of element 0.
func (s *Simulator) createVectorLoad(u *uop, stride int64) bool {
	v, slot := s.dispatchVectorLoad(u.d.Seq, u.d.PC, u.d.EffAddr(), stride)
	if v == nil {
		return false
	}
	s.makeValidation(u, kindLoadValidation, v.vreg, v.vepoch, 0, slot)
	u.producer, u.producerGen = v, v.gen
	return true
}

// dispatchVectorLoad allocates a register for the load at pc, maps it in
// the VRMT and dispatches a vector-load instance for the VL addresses from
// base. It returns the instance and its live VRMT slot, or a nil instance
// (counted as a skip) when the vector queue is full or no register is
// free.
func (s *Simulator) dispatchVectorLoad(seq, pc, base uint64, stride int64) (*vop, *core.Entry) {
	if len(s.viq) >= s.cfg.VIQSize {
		s.countSkip(seq)
		return nil, nil
	}
	id, epoch, ok := s.allocVReg(seq, pc, true, 0)
	if !ok {
		s.countSkip(seq)
		return nil, nil
	}
	s.vrf.SetRange(id, base, stride)
	slot := s.vrmt.Insert(seq, core.Entry{PC: pc, VReg: id, VEpoch: epoch}, s.jnl)

	v := s.vops.get()
	v.isLoad = true
	v.vreg = id
	v.vepoch = epoch
	v.vl = s.cfg.VectorLen
	s.buildLoadGroups(v, base, stride)
	s.viq = append(s.viq, v)

	s.sim.VectorLoadInstances++
	s.jnl.PushDec(seq, &s.sim.VectorLoadInstances)
	return v, slot
}

// buildLoadGroups splits a vector load's element addresses into bus
// transactions: one line per access on the wide bus, one element per
// access on scalar buses (§3.7). Groups live in the vop's pooled scratch.
func (s *Simulator) buildLoadGroups(v *vop, base uint64, stride int64) {
	vl := v.vl
	if cap(v.elemsBuf) < vl {
		// Reserve up front: groups alias subranges of elemsBuf, so the
		// backing array must not move mid-build.
		v.elemsBuf = make([]int, 0, vl)
	}
	for i := 0; i < vl; i++ {
		addr := base + uint64(int64(i)*stride)
		v.elemsBuf = append(v.elemsBuf, i)
		tail := v.elemsBuf[len(v.elemsBuf)-1:]
		if !s.cfg.WideBus {
			v.groups = append(v.groups, loadGroup{addr: addr, elems: tail})
			continue
		}
		line := s.hier.DLineAddr(addr)
		if n := len(v.groups); n > 0 && v.groups[n-1].addr == line {
			last := &v.groups[n-1]
			last.elems = last.elems[:len(last.elems)+1]
			continue
		}
		v.groups = append(v.groups, loadGroup{addr: line, elems: tail})
	}
}

// decodeArithSDV handles arithmetic: propagation of the vectorizable
// attribute down the dependence graph, operand validation, roll-over and
// the scalar-operand decode block.
func (s *Simulator) decodeArithSDV(u *uop) (blocked bool) {
	in := u.d.Inst
	seq, pc := u.d.Seq, u.d.PC
	srcs, nsrc := in.SrcRegs()
	if nsrc == 0 {
		return false // li and friends: no register sources to propagate from
	}

	// Resolve current operands against the V/S rename state (Figure 6).
	var cur [2]core.Operand
	var curVS [2]core.VSEntry
	srcVals := u.d.Vals
	for i := 0; i < nsrc; i++ {
		r := srcs[i]
		if !r.IsZero() {
			if e := s.vs[r]; e.IsVector && s.vrf.ValidRef(e.VReg, e.VEpoch) {
				cur[i] = core.Operand{Kind: core.OperandVector, VReg: e.VReg}
				curVS[i] = e
				continue
			}
		}
		cur[i] = core.Operand{Kind: core.OperandScalar, Value: srcVals[i]}
	}
	if nsrc < 2 {
		if in.HasImmOperand() {
			cur[1] = core.Operand{Kind: core.OperandImm, Value: uint64(in.Imm)}
		} else {
			cur[1] = core.Operand{Kind: core.OperandNone}
		}
	}
	anyVector := cur[0].Kind == core.OperandVector || cur[1].Kind == core.OperandVector

	entry, found := s.vrmt.Lookup(pc)
	if found && !s.vrf.ValidRef(entry.VReg, entry.VEpoch) {
		s.vrmt.InvalidateEntry(seq, entry, s.jnl)
		found = false
	}
	if !found && !anyVector {
		return false // plain scalar instruction
	}

	// §3.2: an instruction with a recorded scalar operand must compare the
	// register's current value against the VRMT at decode; if the producer
	// is still in flight, decode blocks (Figure 7's "ideal" bars skip the
	// stall). Recording a value into a *new* instance needs no comparison
	// and does not stall. The wait is bounded: after maxBlockCycles the
	// check is abandoned — the instance executes in scalar mode and the PC
	// takes a churn strike (an operand that is chronically late behaves
	// like one that chronically mismatches).
	const maxBlockCycles = 4
	if s.cfg.BlockScalarOperand && found && entry.Offset < s.cfg.VectorLen {
		for i := 0; i < nsrc; i++ {
			rec := entry.Src1
			if i == 1 {
				rec = entry.Src2
			}
			if rec.Kind == core.OperandScalar && cur[i].Kind == core.OperandScalar &&
				u.deps[i].inFlight(s.cycle) {
				if u.blockedCycles >= maxBlockCycles {
					s.strikeChurn(seq, pc)
					s.vrmt.InvalidateEntry(seq, entry, s.jnl)
					return false // proceed in scalar mode
				}
				u.blockedCycles++
				return true
			}
		}
	}

	vl := s.cfg.VectorLen
	if found {
		if entry.Offset >= vl {
			// Exhausted: next vectorized instance from current operands.
			if anyVector && !s.churned(seq, pc) && s.createVectorArith(u, cur, curVS) {
				return false
			}
			s.vrmt.InvalidateEntry(seq, entry, s.jnl)
			return false
		}
		if entry.Src1.Matches(cur[0]) && entry.Src2.Matches(cur[1]) {
			s.makeValidation(u, kindArithValidation, entry.VReg, entry.VEpoch, entry.Offset, entry)
			return false
		}
		// A scalar value that differs on every instance is not a
		// vectorizable pattern (§3.1): repeated scalar-value mismatches
		// put the PC on cooldown so it executes in scalar mode for a
		// while instead of churning a new instance per iteration.
		vecOK := (entry.Src1.Kind != core.OperandVector || entry.Src1.Matches(cur[0])) &&
			(entry.Src2.Kind != core.OperandVector || entry.Src2.Matches(cur[1]))
		scalarMiss := (entry.Src1.Kind == core.OperandScalar && !entry.Src1.Matches(cur[0])) ||
			(entry.Src2.Kind == core.OperandScalar && !entry.Src2.Matches(cur[1]))
		if vecOK && scalarMiss {
			s.strikeChurn(seq, pc)
		}
		// Operand change: "a new vectorized version of the instruction is
		// generated" (§3.2), unless the PC is on churn cooldown.
		if anyVector && !s.churned(seq, pc) && s.createVectorArith(u, cur, curVS) {
			return false
		}
		s.vrmt.InvalidateEntry(seq, entry, s.jnl)
		return false
	}

	if !s.churned(seq, pc) {
		s.createVectorArith(u, cur, curVS)
	}
	return false
}

// Churn cooldown parameters: a strike (scalar-value mismatch) adds
// churnStrike; creation is suppressed while the level is at or above
// churnGate, decaying by churnDecay per suppressed attempt so the engine
// periodically retries the pattern.
const (
	churnStrike = 100
	churnGate   = 150
	churnCap    = 250
	churnDecay  = 1
	churnSlots  = 4096
)

// churned reports whether pc is on vectorization cooldown, decaying the
// level on each suppressed attempt (journalled for squash replay).
func (s *Simulator) churned(seq, pc uint64) bool {
	if !s.cfg.ChurnDamper {
		return false
	}
	slot := &s.churn[pc%churnSlots]
	if *slot < churnGate {
		return false
	}
	s.jnl.PushU8(seq, slot)
	*slot -= churnDecay
	return true
}

// strikeChurn records a scalar-value mismatch for pc.
func (s *Simulator) strikeChurn(seq, pc uint64) {
	slot := &s.churn[pc%churnSlots]
	s.jnl.PushU8(seq, slot)
	if *slot > churnCap-churnStrike {
		*slot = churnCap
	} else {
		*slot += churnStrike
	}
}

// createVectorArith allocates a register and dispatches an arithmetic
// vector instance; u becomes the validation of its first element. The
// instance starts at the greatest source offset (§3.4); elements below it
// are never computed.
func (s *Simulator) createVectorArith(u *uop, cur [2]core.Operand, curVS [2]core.VSEntry) bool {
	if len(s.viq) >= s.cfg.VIQSize {
		s.countSkip(u.d.Seq)
		return false
	}
	destStart := 0
	offsetNonZero := false
	for i := range cur {
		if cur[i].Kind == core.OperandVector {
			if curVS[i].Offset > destStart {
				destStart = curVS[i].Offset
			}
			if curVS[i].Offset != 0 {
				offsetNonZero = true
			}
		}
	}
	id, epoch, ok := s.allocVReg(u.d.Seq, u.d.PC, false, destStart)
	if !ok {
		s.countSkip(u.d.Seq)
		return false
	}
	slot := s.vrmt.Insert(u.d.Seq, core.Entry{
		PC: u.d.PC, VReg: id, VEpoch: epoch, Offset: destStart,
		Src1: cur[0], Src2: cur[1],
	}, s.jnl)

	v := s.vops.get()
	v.op = u.d.Inst.Op
	v.vreg = id
	v.vepoch = epoch
	v.vl = s.cfg.VectorLen
	v.destStart = destStart
	v.nextElem = destStart
	for i := range cur {
		switch cur[i].Kind {
		case core.OperandVector:
			v.srcs[i] = vsrc{kind: srcVector, vreg: curVS[i].VReg, vepoch: curVS[i].VEpoch, start: curVS[i].Offset}
			s.vrf.Pin(curVS[i].VReg, curVS[i].VEpoch)
		case core.OperandScalar, core.OperandImm:
			v.srcs[i] = vsrc{kind: srcReady}
		}
	}
	s.viq = append(s.viq, v)

	s.sim.VectorArithInstances++
	s.jnl.PushDec(u.d.Seq, &s.sim.VectorArithInstances)
	if offsetNonZero {
		s.sim.VectorInstsOffsetNonZero++
		s.jnl.PushDec(u.d.Seq, &s.sim.VectorInstsOffsetNonZero)
	} else {
		s.sim.VectorInstsOffsetZero++
		s.jnl.PushDec(u.d.Seq, &s.sim.VectorInstsOffsetZero)
	}

	s.makeValidation(u, kindArithValidation, id, epoch, destStart, slot)
	u.producer, u.producerGen = v, v.gen
	return true
}

// makeValidation converts u into a validation of element elem: the U flag
// is set, the VRMT offset advances, and (for arithmetic) register
// dependences are dropped — operands were checked at decode and the result
// is the already-(being-)computed element. entry is the live VRMT slot for
// u's PC (so the offset advance needs no second lookup).
func (s *Simulator) makeValidation(u *uop, kind uopKind, vreg int, epoch uint64, elem int, entry *core.Entry) {
	u.kind = kind
	u.vreg, u.vepoch, u.elem = vreg, epoch, elem
	s.vrf.SetUsed(u.d.Seq, vreg, epoch, elem, s.jnl)
	s.vrmt.AdvanceEntry(u.d.Seq, entry, s.jnl)
	if u.producer == nil {
		u.producer, u.producerGen = s.findVop(vreg, epoch)
	}
	if kind == kindArithValidation {
		u.deps = [2]uopRef{}
	}
}

// allocVReg claims a vector register, running a reclamation sweep and
// retrying once when the file is exhausted (hardware frees registers as
// soon as the §3.3 conditions hold; the sweep is this model's lazy
// equivalent).
func (s *Simulator) allocVReg(seq, pc uint64, isLoad bool, start int) (int, uint64, bool) {
	id, epoch, ok := s.vrf.Alloc(seq, pc, s.gmrbb, isLoad, start, s.jnl)
	if !ok {
		if s.vrf.Sweep(s.gmrbb) == 0 {
			return -1, 0, false
		}
		id, epoch, ok = s.vrf.Alloc(seq, pc, s.gmrbb, isLoad, start, s.jnl)
	}
	return id, epoch, ok
}

// findVop locates the in-flight vector instance writing (vreg, epoch).
func (s *Simulator) findVop(vreg int, epoch uint64) (*vop, uint64) {
	for _, v := range s.viq {
		if v.vreg == vreg && v.vepoch == epoch {
			return v, v.gen
		}
	}
	return nil, 0
}

// countSkip records a vectorization opportunity lost to resource
// exhaustion (no free vector register or full vector queue).
func (s *Simulator) countSkip(seq uint64) {
	s.sim.VRegAllocFailures++
	s.jnl.PushDec(seq, &s.sim.VRegAllocFailures)
}
