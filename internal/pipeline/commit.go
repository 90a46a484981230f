package pipeline

import "specvec/internal/isa"

// commit retires up to CommitWidth completed instructions in program
// order. Stores write memory here (≤2 per cycle, §3.6) and run the vector
// register range check; hits invalidate the mapped VRMT entry and squash
// every younger instruction. Validation commits set element V flags;
// overwrites of a logical register set the F flag of the previous mapping;
// committed backward branches update the GMRBB and trigger register
// reclamation (§3.3). Retired uops return to the pool, which bumps their
// generation: any surviving reference (a consumer's dep, a rename-table
// entry) then reads as completed.
//
//sdv:hotpath
func (s *Simulator) commit() {
	budget := s.cfg.CommitWidth
	stores := 0
	for budget > 0 && s.rob.len() > 0 {
		u := s.rob.front()
		if !u.completed(s.cycle) {
			return
		}
		in := u.d.Inst

		if u.d.Halt {
			s.rob.popFront()
			s.halted = true
			s.lastCommitCycle = s.cycle
			return
		}

		if in.IsStore() {
			if stores >= s.cfg.StoreCommitLimit {
				return
			}
			if !s.hier.CanAcceptData(s.cycle) || !s.ports.TryAcquire() {
				return
			}
			s.hier.AccessData(u.d.EffAddr(), true, s.cycle)
			s.sim.StoreAccesses++
			stores++
		}

		s.rob.popFront()
		s.removeLSQ(u)
		budget--
		s.sim.Committed++
		s.lastCommitCycle = s.cycle

		// Instruction-mix statistics.
		switch {
		case in.IsLoad():
			s.sim.CommittedLoads++
		case in.IsStore():
			s.sim.CommittedStores++
		case in.IsBranch():
			s.sim.CommittedBranches++
		case in.IsArith():
			s.sim.CommittedArith++
		}

		// Figure 10: count reuse inside the 100-instruction window after
		// each mispredicted branch.
		if s.postMispredict > 0 {
			s.sim.PostMispredictInsts++
			if u.isValidation() {
				s.sim.PostMispredictReused++
			}
			s.postMispredict--
		}
		if u.mispredicted {
			s.postMispredict = 100
		}

		if u.isValidation() {
			s.vrf.CommitValidation(u.vreg, u.vepoch, u.elem)
			if u.kind == kindLoadValidation {
				s.sim.LoadValidations++
			} else {
				s.sim.ArithValidations++
			}
		}
		if u.fellBack {
			s.sim.ValidationFailures++
		}

		// F flags: the previous committed mapping of the destination dies.
		if in.WritesReg() {
			rd := in.Rd
			if p := s.prevCommit[rd]; p.valid {
				s.vrf.SetElemFree(p.vreg, p.vepoch, p.elem)
			}
			if u.isValidation() {
				s.prevCommit[rd] = vref{valid: true, vreg: u.vreg, vepoch: u.vepoch, elem: u.elem}
			} else {
				s.prevCommit[rd] = vref{}
			}
		}

		// GMRBB: most recently committed backward branch (§3.3).
		if in.IsBranch() && u.d.Taken && uint64(in.Imm) <= u.d.PC {
			if s.gmrbb != u.d.PC {
				s.gmrbb = u.d.PC
				s.vrf.Sweep(s.gmrbb)
			}
		}

		s.jnl.Prune(u.d.Seq + 1)

		// Periodic reclamation keeps register-file occupancy realistic in
		// long-running loops where the GMRBB never changes.
		if s.cfg.Vectorize && s.sim.Committed%64 == 0 {
			s.vrf.Sweep(s.gmrbb)
		}

		// Memory coherence (§3.6): a committed store whose address falls
		// in a load-vector register's range invalidates that mapping and
		// squashes all following instructions.
		if in.IsStore() && s.cfg.Vectorize {
			check := s.vrf.CheckStoreConflict
			if s.cfg.RangeOnlyConflicts {
				check = s.vrf.CheckStoreConflictRangeOnly
			}
			if id := check(u.d.EffAddr(), isa.WordBytes); id >= 0 {
				s.sim.StoreConflicts++
				s.vrmt.InvalidateByVReg(u.d.Seq, id, nil)
				s.squash(u.d.Seq + 1)
				s.recycle(u)
				return
			}
		}

		s.recycle(u)
	}
}

// recycle returns a retired uop to the pool. If the front end is still
// stalled on it (a mispredicted branch can commit in the same cycle that
// fetch would observe its completion), the stall is resolved here with the
// same redirect arithmetic fetch would have applied.
func (s *Simulator) recycle(u *uop) {
	if s.fetchStall == u {
		if at := u.doneAt + uint64(s.cfg.MispredictPenalty); at > s.fetchReadyAt {
			s.fetchReadyAt = at
		}
		s.fetchStall = nil
	}
	s.uops.put(u)
}

// removeLSQ drops a committing memory op from the load/store queue. The
// queue is program-ordered and commit retires in program order, so the op
// is the queue's oldest entry (and, for stores, the oldest tracked store
// position); anything else is a broken pipeline invariant.
func (s *Simulator) removeLSQ(u *uop) {
	if !u.inLSQ {
		return
	}
	if s.lsq.len() == 0 || s.lsq.front() != u {
		panic("pipeline: committing memory op is not the oldest LSQ entry")
	}
	s.lsq.popFront()
	if u.d.Inst.IsStore() {
		s.storePos = s.storePos[:copy(s.storePos, s.storePos[1:])]
	}
}
