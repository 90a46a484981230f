package core

// TLEntry is one Table of Loads record (Figure 4): the load's PC, its last
// effective address, the current stride and a confidence counter.
type TLEntry struct {
	pc       uint64
	valid    bool
	LastAddr uint64
	Stride   int64
	Conf     int
	lru      uint64
}

// Observation is the result of recording one dynamic load in the TL.
type Observation struct {
	Stride    int64 // stride after the update (bytes)
	Confident bool  // confidence reached the vectorization threshold
	FirstSeen bool  // the PC was just inserted
}

// TL is the Table of Loads: 4-way set-associative, 512 sets in Table 1,
// or unbounded for the Figure 3 limit study. The unbounded table is the
// same table with one set of one way per PC, grown when a PC first
// appears (PCs are dense instruction indices), so no entry ever evicts
// another.
type TL struct {
	sets      [][]TLEntry
	threshold int
	stamp     uint64
	grow      bool
}

// NewTL builds a table with the given geometry; sets <= 0 selects the
// unbounded variant.
func NewTL(sets, ways, threshold int) *TL {
	if sets <= 0 {
		return &TL{threshold: threshold, grow: true}
	}
	return &TL{sets: newSets[TLEntry](sets, ways), threshold: threshold}
}

// Observe records the dynamic instance (seq) of the load at pc accessing
// addr, per §3.2: first sight initialises the entry; later sights compute
// the new stride, bump confidence on a match or reset it (and adopt the
// new stride) on a mismatch; the last address always updates. All
// mutations are journalled for squash replay.
func (t *TL) Observe(seq, pc, addr uint64, j *Journal) Observation {
	e, victim := t.locate(pc)
	if e == nil {
		// Miss: insert, possibly evicting another load's history.
		j.pushTLRestore(seq, victim)
		t.stamp++
		*victim = TLEntry{pc: pc, valid: true, LastAddr: addr, lru: t.stamp}
		return Observation{FirstSeen: true}
	}

	j.pushTLRestore(seq, e)

	newStride := int64(addr - e.LastAddr)
	if newStride == e.Stride {
		e.Conf++
	} else {
		e.Conf = 0
		e.Stride = newStride
	}
	e.LastAddr = addr
	t.stamp++
	e.lru = t.stamp
	return Observation{Stride: e.Stride, Confident: e.Conf >= t.threshold}
}

// ResetConfidence clears the confidence counter for pc after a
// vectorization misspeculation, so scalar mode persists "until the
// vectorizing engine detects again a new vectorizable pattern" (§3.1).
func (t *TL) ResetConfidence(seq, pc uint64, j *Journal) {
	e, _ := t.locate(pc)
	if e == nil {
		return
	}
	j.pushTLConf(seq, e)
	e.Conf = 0
}

// Lookup returns the entry for pc without modifying it.
func (t *TL) Lookup(pc uint64) (TLEntry, bool) {
	e, _ := t.locate(pc)
	if e == nil {
		return TLEntry{}, false
	}
	return *e, true
}

// locate returns the matching entry if present; otherwise (nil, eviction
// victim). An unbounded table grows here, and only here.
func (t *TL) locate(pc uint64) (match, victim *TLEntry) {
	if t.grow && pc >= uint64(len(t.sets)) {
		t.sets = growSets(t.sets, pc)
	}
	set := t.sets[pc%uint64(len(t.sets))]
	victim = &set[0]
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			return &set[i], nil
		}
		if !set[i].valid {
			victim = &set[i]
		} else if victim.valid && set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return nil, victim
}
