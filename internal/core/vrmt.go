package core

// OperandKind classifies a source operand recorded in a VRMT entry.
type OperandKind uint8

const (
	// OperandNone marks an unused source slot.
	OperandNone OperandKind = iota
	// OperandVector names a vector register.
	OperandVector
	// OperandScalar records the value of a scalar register source; later
	// instances compare the current value against it (§3.2).
	OperandScalar
	// OperandImm marks an immediate source, which is part of the static
	// instruction and therefore always matches.
	OperandImm
)

// Operand is one recorded source of a vectorized instruction.
type Operand struct {
	Kind  OperandKind
	VReg  int    // OperandVector: the source vector register
	Value uint64 // OperandScalar/OperandImm: the value at vectorization time
}

// Matches reports whether a later dynamic instance's operand is compatible
// with the recorded one.
func (o Operand) Matches(cur Operand) bool {
	if o.Kind != cur.Kind {
		return false
	}
	switch o.Kind {
	case OperandVector:
		return o.VReg == cur.VReg
	case OperandScalar, OperandImm:
		return o.Value == cur.Value
	default:
		return true
	}
}

// Entry is one VRMT record (Figure 5): the vectorized instruction's PC,
// its destination vector register, the offset of the next element to be
// validated, and the recorded source operands.
type Entry struct {
	PC     uint64
	VReg   int
	VEpoch uint64 // allocation epoch of VReg; stale mappings are detected by comparing with the register file
	Offset int
	Src1   Operand
	Src2   Operand

	valid bool
	lru   uint64
}

// VRMT is the Vector Register Map Table: 4-way set-associative, 64 sets in
// Table 1, or unbounded for the Figure 3 limit study: one set of one way
// per PC, grown when a PC first appears, as the unbounded TL is.
type VRMT struct {
	sets  [][]Entry
	stamp uint64
	grow  bool
}

// NewVRMT builds the table; sets <= 0 selects the unbounded variant.
func NewVRMT(sets, ways int) *VRMT {
	if sets <= 0 {
		return &VRMT{grow: true}
	}
	return &VRMT{sets: newSets[Entry](sets, ways)}
}

// set returns pc's set. An unbounded table grows here, and only here.
func (v *VRMT) set(pc uint64) []Entry {
	if v.grow && pc >= uint64(len(v.sets)) {
		v.sets = growSets(v.sets, pc)
	}
	return v.sets[pc%uint64(len(v.sets))]
}

// Lookup returns the live entry for pc, touching its LRU stamp. The
// pointer stays valid until the entry's slot is reused by a later Insert;
// callers must treat it as read-only and not hold it across inserts.
func (v *VRMT) Lookup(pc uint64) (*Entry, bool) {
	e := v.find(pc)
	if e == nil {
		return nil, false
	}
	v.stamp++
	e.lru = v.stamp
	return e, true
}

// Insert installs a new entry for e.PC in place of pc's current entry, or
// else an invalid or the LRU way of its set, and returns the live slot.
// The insertion is journalled.
func (v *VRMT) Insert(seq uint64, e Entry, j *Journal) *Entry {
	set := v.set(e.PC)
	victim := &set[0]
	for i := range set {
		if set[i].valid && set[i].PC == e.PC {
			victim = &set[i]
			break
		}
		if !set[i].valid {
			victim = &set[i]
		} else if victim.valid && set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	j.pushVRMTRestore(seq, victim)
	e.valid = true
	v.stamp++
	e.lru = v.stamp
	*victim = e
	return victim
}

// AdvanceEntry increments the offset of the live entry e (one more
// element has a validation in flight), journalled.
func (v *VRMT) AdvanceEntry(seq uint64, e *Entry, j *Journal) {
	j.pushVRMTOffset(seq, e)
	e.Offset++
}

// InvalidateEntry removes the live entry e returned by Lookup (validation
// failure or store conflict), journalled.
func (v *VRMT) InvalidateEntry(seq uint64, e *Entry, j *Journal) {
	j.pushVRMTRestore(seq, e)
	*e = Entry{}
}

// InvalidateByVReg removes the first entry, in set order, whose
// destination is vreg (store coherence, §3.6). Returns the PC of the
// invalidated entry.
func (v *VRMT) InvalidateByVReg(seq uint64, vreg int, j *Journal) (pc uint64, found bool) {
	for _, set := range v.sets {
		for w := range set {
			if e := &set[w]; e.valid && e.VReg == vreg {
				pc = e.PC
				v.InvalidateEntry(seq, e, j)
				return pc, true
			}
		}
	}
	return 0, false
}

func (v *VRMT) find(pc uint64) *Entry {
	set := v.set(pc)
	for i := range set {
		if set[i].valid && set[i].PC == pc {
			return &set[i]
		}
	}
	return nil
}
