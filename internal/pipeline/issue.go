package pipeline

import (
	"math/bits"

	"specvec/internal/isa"
)

// Issue-stage scheduling. Instead of re-testing every issue-queue entry's
// register dependences each cycle, the queue keeps a ready bitset
// scoreboard over its (program-ordered) positions: a bit is set once every
// in-flight producer of the entry has issued, i.e. the entry's earliest
// possible issue cycle (readyAt = max producer completion) is known.
// Producers wake their waiters when they issue; entries whose readiness
// depends on non-register state (validations polling the vector register
// file, loads gated by the LSQ and memory ports) keep their bit set and
// are re-tested against that state only.

// setReady marks iq position idx as schedulable.
func (s *Simulator) setReady(idx int32) {
	s.readyBits[idx>>6] |= 1 << (idx & 63)
}

// dispatch places u in the issue queue and wires its wakeup state: known
// producers contribute their completion cycle to readyAt; still-unissued
// producers get u appended to their waiter list.
func (s *Simulator) dispatch(u *uop) {
	u.readyAt = 0
	u.pendingDeps = 0
	for i := range u.deps {
		d := u.deps[i]
		if d.u == nil || d.u.gen != d.gen {
			continue
		}
		if d.u.issued {
			if d.u.doneAt > u.readyAt {
				u.readyAt = d.u.doneAt
			}
		} else {
			d.u.waiters = append(d.u.waiters, uopRef{u: u, gen: u.gen})
			u.pendingDeps++
		}
	}
	u.iqIdx = int32(len(s.iq))
	s.iq = append(s.iq, u)
	if u.pendingDeps == 0 {
		s.setReady(u.iqIdx)
	}
}

// markIssued records u's issue and completion cycle and wakes consumers
// waiting on its result.
func (s *Simulator) markIssued(u *uop, doneAt uint64) {
	u.issued, u.doneAt = true, doneAt
	for _, w := range u.waiters {
		c := w.u
		if c == nil || c.gen != w.gen {
			continue
		}
		if doneAt > c.readyAt {
			c.readyAt = doneAt
		}
		if c.pendingDeps--; c.pendingDeps == 0 {
			s.setReady(c.iqIdx)
		}
	}
	u.waiters = u.waiters[:0]
}

// issueScalar selects up to IssueWidth ready instructions from the issue
// queue, oldest first, and starts their execution. Only positions flagged
// in the ready scoreboard are visited; a one-word comparison skips entries
// whose operands are scheduled but not yet complete.
//
//sdv:hotpath
func (s *Simulator) issueScalar() {
	budget := s.cfg.IssueWidth
	issued := 0
	nw := (len(s.iq) + 63) >> 6
scan:
	for w := 0; w < nw; w++ {
		// Re-read the scoreboard word after every visit: issuing a
		// validation completes it this cycle, which can make a younger
		// entry in the same word ready right now (same-cycle wakeup). The
		// visited mask keeps each position to one attempt per cycle.
		visited := uint64(0)
		for {
			word := s.readyBits[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			visited |= 1 << b
			u := s.iq[w<<6|b]
			if u.readyAt > s.cycle {
				continue
			}
			if s.tryIssue(u) {
				issued++
				if budget--; budget == 0 {
					break scan
				}
			}
		}
	}
	if issued > 0 {
		s.compactIQ()
	}
}

// compactIQ drops issued entries, renumbers the survivors and rebuilds the
// ready scoreboard (positions shift left; readiness is preserved).
func (s *Simulator) compactIQ() {
	clear(s.readyBits)
	live := s.iq[:0]
	for _, u := range s.iq {
		if u.issued {
			continue
		}
		u.iqIdx = int32(len(live))
		live = append(live, u)
		if u.pendingDeps == 0 {
			s.setReady(u.iqIdx)
		}
	}
	s.iq = live
}

func (s *Simulator) tryIssue(u *uop) bool {
	in := u.d.Inst
	switch {
	case u.kind == kindArithValidation:
		return s.issueArithValidation(u)
	case u.kind == kindLoadValidation:
		return s.issueLoadValidation(u)
	case in.IsLoad():
		return s.issueLoad(u)
	case in.IsStore():
		// The memory write happens at commit; the store is complete once
		// address and data are available.
		if !u.depsReady(s.cycle) {
			return false
		}
		s.markIssued(u, s.cycle+1)
		return true
	case u.d.Halt, in.Op == isa.OpNop, isa.ClassOf(in.Op) == isa.FUNone:
		if !u.depsReady(s.cycle) {
			return false
		}
		s.markIssued(u, s.cycle+1)
		return true
	default:
		if !u.depsReady(s.cycle) {
			return false
		}
		cls, lat := isa.ClassOf(in.Op), isa.LatencyOf(in.Op)
		if !s.pools[cls].tryIssue(s.cycle, lat, isa.Pipelined(in.Op)) {
			return false
		}
		s.markIssued(u, s.cycle+uint64(lat))
		return true
	}
}

// issueArithValidation completes once the awaited element has been
// computed by the vector datapath; no functional unit is needed. If the
// producing instance died without scheduling the element, the instruction
// falls back to scalar execution.
func (s *Simulator) issueArithValidation(u *uop) bool {
	if s.vrf.ElemReady(u.vreg, u.vepoch, u.elem, s.cycle) {
		// The element's data already exists in the vector register; the
		// check completes immediately (validations are off the data path).
		s.markIssued(u, s.cycle)
		return true
	}
	if s.elemDead(u) {
		s.fallBack(u)
		return s.tryIssue(u)
	}
	return false
}

// issueLoadValidation checks the predicted address (address operands must
// be ready — the check uses the AGU result) and waits for the element.
func (s *Simulator) issueLoadValidation(u *uop) bool {
	if !u.addrReady(s.cycle) {
		return false
	}
	if s.vrf.ElemReady(u.vreg, u.vepoch, u.elem, s.cycle) {
		s.markIssued(u, s.cycle)
		return true
	}
	if s.elemDead(u) {
		s.fallBack(u)
		return s.tryIssue(u)
	}
	return false
}

// elemDead reports that the awaited element will never be scheduled: the
// register reference went stale or the producing instance aborted before
// reaching it. A recycled producer reference is dead too — an instance is
// only recycled after scheduling every element (in which case
// ElemScheduled above reports true first) or after aborting.
func (s *Simulator) elemDead(u *uop) bool {
	if !s.vrf.ValidRef(u.vreg, u.vepoch) {
		return true
	}
	if s.vrf.ElemScheduled(u.vreg, u.vepoch, u.elem) {
		return false // data is on its way
	}
	p := u.liveProducer()
	return p == nil || p.aborted
}

// fallBack converts a validation into ordinary scalar execution and
// releases its U flag so the register can still be reclaimed.
func (s *Simulator) fallBack(u *uop) {
	s.vrf.ClearUsed(u.vreg, u.vepoch, u.elem)
	u.kind = kindNormal
	u.fellBack = true
}

// issueLoad models the load/store queue rules of Table 1 ("loads may
// execute when prior store addresses are known", store→load forwarding)
// and the scalar/wide data buses of §3.7.
func (s *Simulator) issueLoad(u *uop) bool {
	if !u.addrReady(s.cycle) {
		return false
	}
	// Walk older in-flight stores, youngest first (storePos mirrors the
	// program-ordered LSQ ring, so loads skip straight over other loads).
	for i := len(s.storePos) - 1; i >= 0; i-- {
		p := s.storePos[i]
		if p >= u.lsqPos {
			continue // younger than the load
		}
		st := s.lsq.at(p)
		if !st.addrReady(s.cycle) {
			return false // unknown address: conservative wait
		}
		if st.wordAddr() == u.wordAddr() {
			if !st.dataReady(s.cycle) {
				return false
			}
			s.markIssued(u, s.cycle+1) // forwarded, no port
			return true
		}
	}

	// Memory access, merging with an already-issued wide access when the
	// line matches (§3.7: up to 4 pending loads per access).
	if s.ports.Wide() {
		line := s.hier.DLineAddr(u.d.EffAddr())
		if m := s.merges.lookup(line); m != nil && m.loads < s.cfg.MaxLoadsPerWideAccess {
			m.loads++
			m.addWord(u.wordAddr())
			s.markIssued(u, m.at)
			s.sim.LoadsMerged++
			return true
		}
	}
	if !s.hier.CanAcceptData(s.cycle) {
		s.sim.MSHRStallCycles++
		return false
	}
	if !s.ports.TryAcquire() {
		return false
	}
	addr := u.d.EffAddr()
	if s.ports.Wide() {
		addr = s.hier.DLineAddr(addr)
	}
	lat := s.hier.AccessData(addr, false, s.cycle)
	s.markIssued(u, s.cycle+uint64(lat))
	s.sim.ScalarAccesses++
	if s.ports.Wide() {
		m := s.merges.add(addr, u.doneAt, false)
		m.loads = 1
		m.addWord(u.wordAddr())
	}
	return true
}

// issueVector advances the vector datapath: loads fetch their line groups
// through the shared memory ports; arithmetic instances start one element
// per cycle on a pipelined vector unit once that element's sources are
// ready (chaining, §3.4). Drained and aborted instances return to the
// pool.
//
//sdv:hotpath
func (s *Simulator) issueVector() {
	live := s.viq[:0]
	for _, v := range s.viq {
		if v.aborted || !s.vrf.ValidRef(v.vreg, v.vepoch) {
			v.aborted = true
			s.unpinSources(v)
			s.vops.put(v)
			continue
		}
		if v.isLoad {
			for v.nextGroup < len(v.groups) {
				g := v.groups[v.nextGroup]
				// §3.7: one wide access serves every pending load of the
				// line, including other vector instances' elements.
				if s.ports.Wide() {
					if m := s.merges.lookup(g.addr); m != nil {
						for _, e := range g.elems {
							s.vrf.MarkComputed(v.vreg, v.vepoch, e, m.at)
						}
						s.vrf.AddLineUse(v.vreg, v.vepoch, g.addr, g.elems)
						s.sim.LoadsMerged++
						v.nextGroup++
						continue
					}
				}
				if !s.hier.CanAcceptData(s.cycle) || !s.ports.TryAcquire() {
					break
				}
				lat := s.hier.AccessData(g.addr, false, s.cycle)
				done := s.cycle + uint64(lat)
				for _, e := range g.elems {
					s.vrf.MarkComputed(v.vreg, v.vepoch, e, done)
				}
				if s.ports.Wide() {
					s.vrf.AddLineUse(v.vreg, v.vepoch, g.addr, g.elems)
					s.merges.add(g.addr, done, true)
				}
				s.sim.VectorAccesses++
				v.nextGroup++
			}
		} else if v.nextElem < v.vl && s.vsrcsReady(v, v.nextElem) {
			cls, lat := isa.ClassOf(v.op), isa.LatencyOf(v.op)
			if s.vpools[cls].tryIssue(s.cycle, lat, isa.Pipelined(v.op)) {
				s.vrf.MarkComputed(v.vreg, v.vepoch, v.nextElem, s.cycle+uint64(lat))
				v.nextElem++
			}
		}
		if v.done() {
			s.unpinSources(v)
			s.vops.put(v)
			continue
		}
		live = append(live, v)
	}
	s.viq = live
}

// vsrcsReady reports whether the source elements feeding dest element elem
// are available; a stale source aborts the instance.
func (s *Simulator) vsrcsReady(v *vop, elem int) bool {
	for _, src := range v.srcs {
		if src.kind != srcVector {
			continue
		}
		if !s.vrf.ValidRef(src.vreg, src.vepoch) {
			v.aborted = true
			return false
		}
		srcElem := src.start + (elem - v.destStart)
		if !s.vrf.ElemReady(src.vreg, src.vepoch, srcElem, s.cycle) {
			return false
		}
	}
	return true
}
