package core

import (
	"testing"
	"testing/quick"
)

// refTL and refVRMT are what an unbounded table holds for one PC.
type refTL struct {
	last   uint64
	stride int64
	conf   int
}

type refVRMT struct {
	vreg, offset int
}

// refUndo restores one PC's entry in one reference table to what it held
// before a change (absent when !had).
type refUndo struct {
	seq  uint64
	isTL bool
	pc   uint64
	had  bool
	tl   refTL
	vrmt refVRMT
}

// refModel is the reference for the unbounded TL and VRMT: a map per table
// and one undo stack, rewound newest first and pruned from the oldest.
type refModel struct {
	tl    map[uint64]refTL
	vrmt  map[uint64]refVRMT
	undo  []refUndo
	floor int // undo[:floor] is pruned
}

func (m *refModel) saveTL(seq, pc uint64) {
	old, had := m.tl[pc]
	m.undo = append(m.undo, refUndo{seq: seq, isTL: true, pc: pc, had: had, tl: old})
}

func (m *refModel) saveVRMT(seq, pc uint64) {
	old, had := m.vrmt[pc]
	m.undo = append(m.undo, refUndo{seq: seq, pc: pc, had: had, vrmt: old})
}

func (m *refModel) rewindTo(seq uint64) {
	for len(m.undo) > m.floor && m.undo[len(m.undo)-1].seq >= seq {
		u := m.undo[len(m.undo)-1]
		m.undo = m.undo[:len(m.undo)-1]
		switch {
		case u.isTL && u.had:
			m.tl[u.pc] = u.tl
		case u.isTL:
			delete(m.tl, u.pc)
		case u.had:
			m.vrmt[u.pc] = u.vrmt
		default:
			delete(m.vrmt, u.pc)
		}
	}
}

func (m *refModel) prune(seq uint64) {
	for m.floor < len(m.undo) && m.undo[m.floor].seq < seq {
		m.floor++
	}
}

// TestUnboundedTablesMatchReferenceModel drives random sequences of TL
// observations, VRMT inserts, advances and invalidations (by entry and by
// vector register), rewinds and prunes through an unbounded TL and VRMT
// sharing one journal, and after every step requires each Lookup, and the
// journal's live length, to match the reference model. PCs are spread so
// that the tables grow several times mid-sequence; a Lookup grows the table
// too, so the checks only look up PCs the steps have reached.
func TestUnboundedTablesMatchReferenceModel(t *testing.T) {
	const threshold = 2
	pcs := []uint64{0, 3, 7, 20, 21, 64, 65, 150, 400, 401}
	f := func(ops [200]uint32) bool {
		tl := NewTL(0, 0, threshold)
		v := NewVRMT(0, 0)
		j := NewJournal()
		m := &refModel{tl: map[uint64]refTL{}, vrmt: map[uint64]refVRMT{}}
		addr := map[uint64]uint64{}
		var seq, floor uint64 // next sequence; oldest sequence a rewind may reach
		reached := 0          // pcs[:reached] have been touched
		for step, op := range ops {
			i := int(op>>3) % len(pcs)
			pc := pcs[i]
			reached = max(reached, i+1)
			arg := op >> 8
			switch op % 8 {
			case 0, 1: // observe a load whose stride is 0, 8 or 16 bytes
				addr[pc] += uint64(arg%3) * 8
				obs := tl.Observe(seq, pc, addr[pc], j)
				m.saveTL(seq, pc)
				r, seen := m.tl[pc]
				want := Observation{FirstSeen: true}
				if !seen {
					r = refTL{last: addr[pc]}
				} else {
					if s := int64(addr[pc] - r.last); s == r.stride {
						r.conf++
					} else {
						r.conf, r.stride = 0, s
					}
					r.last = addr[pc]
					want = Observation{Stride: r.stride, Confident: r.conf >= threshold}
				}
				m.tl[pc] = r
				if obs != want {
					t.Logf("step %d: Observe(%d) = %+v, want %+v", step, pc, obs, want)
					return false
				}
			case 2, 3:
				vreg := int(arg % 6)
				v.Insert(seq, Entry{PC: pc, VReg: vreg}, j)
				m.saveVRMT(seq, pc)
				m.vrmt[pc] = refVRMT{vreg: vreg}
			case 4:
				if e, ok := v.Lookup(pc); ok {
					v.AdvanceEntry(seq, e, j)
					m.saveVRMT(seq, pc)
					r := m.vrmt[pc]
					r.offset++
					m.vrmt[pc] = r
				}
			case 5:
				if arg%2 == 0 {
					if e, ok := v.Lookup(pc); ok {
						v.InvalidateEntry(seq, e, j)
						m.saveVRMT(seq, pc)
						delete(m.vrmt, pc)
					}
					break
				}
				vreg := int(arg/2) % 6
				got, found := v.InvalidateByVReg(seq, vreg, j)
				// The model removes the entry of the lowest such PC: the
				// grown table keeps one set per PC, in PC order.
				var want uint64
				wantFound := false
				for _, p := range pcs {
					if r, ok := m.vrmt[p]; ok && r.vreg == vreg {
						want, wantFound = p, true
						break
					}
				}
				if wantFound {
					m.saveVRMT(seq, want)
					delete(m.vrmt, want)
				}
				if got != want || found != wantFound {
					t.Logf("step %d: InvalidateByVReg(%d) = %d, %v; want %d, %v", step, vreg, got, found, want, wantFound)
					return false
				}
			case 6: // squash: rewind to a sequence no older than the last prune
				to := floor + uint64(arg)%(seq-floor+1)
				j.RewindTo(to)
				m.rewindTo(to)
				seq = to
			case 7: // commit: prune up to a sequence no newer than the next
				floor += uint64(arg) % (seq - floor + 1)
				j.Prune(floor)
				m.prune(floor)
			}
			if arg%4 != 0 {
				seq++ // otherwise the next step shares this sequence
			}

			if j.Len() != len(m.undo)-m.floor {
				t.Logf("step %d: journal holds %d live records, model %d", step, j.Len(), len(m.undo)-m.floor)
				return false
			}
			for _, p := range pcs[:reached] {
				e, ok := tl.Lookup(p)
				r, want := m.tl[p]
				if ok != want || ok && (e.LastAddr != r.last || e.Stride != r.stride || e.Conf != r.conf) {
					t.Logf("step %d: TL Lookup(%d) = %+v, %v; want %+v, %v", step, p, e, ok, r, want)
					return false
				}
				ve, ok := v.Lookup(p)
				rv, want := m.vrmt[p]
				if ok != want || ok && (ve.PC != p || ve.VReg != rv.vreg || ve.Offset != rv.offset) {
					t.Logf("step %d: VRMT Lookup(%d) = %+v, %v; want %+v, %v", step, p, ve, ok, rv, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
