package pipeline

import "specvec/internal/isa"

// fetch pulls up to FetchWidth instructions from the dynamic stream,
// modelling I-cache latency, the one-taken-branch-per-cycle limit, and the
// fetch stall on mispredicted control instructions (trace-driven recovery:
// the correct path resumes once the branch resolves, plus a redirect
// penalty). Fetched uops come from the simulator's free-list pool; a
// record that cannot enter this cycle's fetch group is handed back to the
// replay window and taken again next time.
//
//sdv:hotpath
func (s *Simulator) fetch() {
	// A mispredicted control instruction blocks fetch until it resolves.
	if s.fetchStall != nil {
		if !s.fetchStall.completed(s.cycle) {
			return
		}
		if at := s.fetchStall.doneAt + uint64(s.cfg.MispredictPenalty); at > s.fetchReadyAt {
			s.fetchReadyAt = at
		}
		s.fetchStall = nil
	}
	if s.fetchHalted || s.cycle < s.fetchReadyAt {
		return
	}
	if s.fetchBuf.len() >= 2*s.cfg.FetchWidth {
		return
	}

	lineBytes := uint64(s.cfg.Mem.ICache.LineBytes)
	var curLine uint64
	haveLine := false

	for n := 0; n < s.cfg.FetchWidth; n++ {
		d, ok := s.next()
		if !ok {
			return
		}

		byteAddr := isa.PCToByte(d.PC)
		line := byteAddr / lineBytes
		if !haveLine {
			lat := s.hier.AccessInst(byteAddr)
			if lat > 1 {
				// I-cache miss: hold the record, resume when the line
				// arrives (the fill has warmed the cache).
				s.fetchSeq--
				s.fetchReadyAt = s.cycle + uint64(lat)
				return
			}
			curLine, haveLine = line, true
		} else if line != curLine {
			// Fetch groups do not cross I-cache lines.
			s.fetchSeq--
			return
		}

		u := s.uops.get()
		u.d = *d
		replayed := s.hasFetched && d.Seq <= s.maxFetchedSeq
		if !replayed {
			s.maxFetchedSeq, s.hasFetched = d.Seq, true
		} else {
			u.statsCounted = true
		}
		s.sim.Fetched++

		if d.Inst.IsControl() && !d.Halt {
			_, correct := s.pred.Predict(d.PC, d.Inst, d.Taken, d.NextPC())
			if !correct {
				u.mispredicted = true
				if !replayed {
					if d.Inst.IsBranch() {
						s.sim.BranchMispredicts++
					} else {
						s.sim.JumpMispredicts++
					}
				}
			}
		}

		s.fetchBuf.push(u)

		if d.Halt {
			s.fetchHalted = true
			return
		}
		if u.mispredicted {
			// Wrong-path fetch is not modelled; stall until resolution.
			s.fetchStall = u
			return
		}
		if d.Inst.IsControl() && d.NextPC() != d.PC+1 {
			// Taken control flow: at most one taken branch per cycle.
			return
		}
	}
}
