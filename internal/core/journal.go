package core

// Journal is an undo log for decode-time state changes. Entries are pushed
// in program (sequence) order as instructions decode; RewindTo undoes, in
// reverse order, every entry belonging to squashed instructions so the
// replayed decodes start from exactly the pre-squash state.
//
// The journal is on the simulator's per-instruction hot path, so the
// common undo shapes (restore a TL/VRMT slot, undo a register allocation,
// clear a flag, decrement a counter) are recorded as typed records instead
// of heap-allocated closures: a central log keeps (seq, kind) in push
// order, and each kind's payload lives in its own typed stack that is
// pushed and popped in lock-step with the central log. Every log compacts
// as soon as its pruned prefix outgrows its live entries, so its capacity
// follows its live high-water mark and, after warm-up, pushing is
// allocation-free.
type Journal struct {
	recs []jrec
	head int // index of the oldest live central record

	tlRecs    jstack[tlRestore]
	tlConfs   jstack[tlConf]
	vrmtRecs  jstack[vrmtRestore]
	vrmtOffs  jstack[vrmtOffset]
	regAllocs jstack[regAllocUndo]
	elemUs    jstack[elemU]
	vsRecs    jstack[vsRestore]
	u8s       jstack[u8Restore]
	decs      jstack[*uint64]
}

type jkind uint8

const (
	jTLRestore jkind = iota
	jTLConf
	jVRMTRestore
	jVRMTOffset
	jRegAlloc
	jElemU
	jVS
	jU8
	jDecU64
)

type jrec struct {
	seq  uint64
	kind jkind
}

// Typed payloads: each holds what its undo restores.
type tlRestore struct {
	e   *TLEntry
	old TLEntry
}
type tlConf struct {
	e   *TLEntry
	old int
}
type vrmtRestore struct {
	e   *Entry
	old Entry
}
type vrmtOffset struct {
	e   *Entry
	old int
}
type regAllocUndo struct {
	rf    *RegFile
	id    int // register index, not pointer: unbounded mode may reallocate regs
	epoch uint64
}
type elemU struct {
	rf  *RegFile // memo invalidation: the undo mutates an element flag
	e   *ElemState
	old bool
}
type vsRestore struct {
	e   *VSEntry
	old VSEntry
}
type u8Restore struct {
	p   *uint8
	old uint8
}

// jstack is one typed payload stack: pushed at the tail, popped at the
// tail on rewind, and consumed from the head on prune, in lock-step with
// the central record log.
type jstack[T any] struct {
	items []T
	head  int
}

func (s *jstack[T]) push(v T) { s.items = append(s.items, v) }

func (s *jstack[T]) pop() T {
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// dropOldest forgets the head item (zeroing it so its pointers release
// what they reference) and compacts once the dead prefix outgrows the
// live items.
func (s *jstack[T]) dropOldest() {
	var zero T
	s.items[s.head] = zero
	s.head++
	if s.head > len(s.items)/2 {
		n := copy(s.items, s.items[s.head:])
		s.items = s.items[:n]
		s.head = 0
	}
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// record appends one central record for the instruction with sequence
// seq; sequences are non-decreasing (decode is in order). A nil journal
// discards it — commit-time effects are never rolled back, so callers
// mutating state at commit pass nil (the typed push methods each
// nil-check before calling).
func (j *Journal) record(seq uint64, kind jkind) {
	j.recs = append(j.recs, jrec{seq: seq, kind: kind})
}

func (j *Journal) pushTLRestore(seq uint64, e *TLEntry) {
	if j == nil {
		return
	}
	j.record(seq, jTLRestore)
	j.tlRecs.push(tlRestore{e: e, old: *e})
}

func (j *Journal) pushTLConf(seq uint64, e *TLEntry) {
	if j == nil {
		return
	}
	j.record(seq, jTLConf)
	j.tlConfs.push(tlConf{e: e, old: e.Conf})
}

func (j *Journal) pushVRMTRestore(seq uint64, e *Entry) {
	if j == nil {
		return
	}
	j.record(seq, jVRMTRestore)
	j.vrmtRecs.push(vrmtRestore{e: e, old: *e})
}

func (j *Journal) pushVRMTOffset(seq uint64, e *Entry) {
	if j == nil {
		return
	}
	j.record(seq, jVRMTOffset)
	j.vrmtOffs.push(vrmtOffset{e: e, old: e.Offset})
}

func (j *Journal) pushRegAlloc(seq uint64, rf *RegFile, id int, epoch uint64) {
	if j == nil {
		return
	}
	j.record(seq, jRegAlloc)
	j.regAllocs.push(regAllocUndo{rf: rf, id: id, epoch: epoch})
}

func (j *Journal) pushElemU(seq uint64, rf *RegFile, e *ElemState) {
	if j == nil {
		return
	}
	j.record(seq, jElemU)
	j.elemUs.push(elemU{rf: rf, e: e, old: e.U})
}

// PushVS snapshots one V/S rename-table entry (Figure 6 state owned by the
// pipeline's decode stage).
func (j *Journal) PushVS(seq uint64, e *VSEntry) {
	if j == nil {
		return
	}
	j.record(seq, jVS)
	j.vsRecs.push(vsRestore{e: e, old: *e})
}

// PushU8 snapshots one byte-sized counter (the pipeline's churn-cooldown
// levels).
func (j *Journal) PushU8(seq uint64, p *uint8) {
	if j == nil {
		return
	}
	j.record(seq, jU8)
	j.u8s.push(u8Restore{p: p, old: *p})
}

// PushDec records "decrement *p on rewind" — the undo of a statistics
// counter increment.
func (j *Journal) PushDec(seq uint64, p *uint64) {
	if j == nil {
		return
	}
	j.record(seq, jDecU64)
	j.decs.push(p)
}

// undoNewest pops and applies the newest record.
//
//sdv:hotpath
func (j *Journal) undoNewest() {
	rec := j.recs[len(j.recs)-1]
	j.recs = j.recs[:len(j.recs)-1]
	switch rec.kind {
	case jTLRestore:
		r := j.tlRecs.pop()
		*r.e = r.old
	case jTLConf:
		r := j.tlConfs.pop()
		r.e.Conf = r.old
	case jVRMTRestore:
		r := j.vrmtRecs.pop()
		*r.e = r.old
	case jVRMTOffset:
		r := j.vrmtOffs.pop()
		r.e.Offset = r.old
	case jRegAlloc:
		r := j.regAllocs.pop()
		r.rf.undoAlloc(r.id, r.epoch)
	case jElemU:
		r := j.elemUs.pop()
		r.e.U = r.old
		// The write bypasses the RegFile's mutators (raw element pointer),
		// so the Sweep memo must be invalidated here.
		r.rf.noteMut()
	case jVS:
		r := j.vsRecs.pop()
		*r.e = r.old
	case jU8:
		r := j.u8s.pop()
		*r.p = r.old
	case jDecU64:
		*j.decs.pop()--
	}
}

// RewindTo undoes every entry with sequence >= seq, newest first.
func (j *Journal) RewindTo(seq uint64) {
	for len(j.recs) > j.head {
		if j.recs[len(j.recs)-1].seq < seq {
			return
		}
		j.undoNewest()
	}
}

// Prune forgets entries with sequence < seq (already committed; a squash
// can never reach behind the commit point). Memory is compacted once the
// dead prefix outgrows the live entries.
func (j *Journal) Prune(seq uint64) {
	for j.head < len(j.recs) && j.recs[j.head].seq < seq {
		switch j.recs[j.head].kind {
		case jTLRestore:
			j.tlRecs.dropOldest()
		case jTLConf:
			j.tlConfs.dropOldest()
		case jVRMTRestore:
			j.vrmtRecs.dropOldest()
		case jVRMTOffset:
			j.vrmtOffs.dropOldest()
		case jRegAlloc:
			j.regAllocs.dropOldest()
		case jElemU:
			j.elemUs.dropOldest()
		case jVS:
			j.vsRecs.dropOldest()
		case jU8:
			j.u8s.dropOldest()
		case jDecU64:
			j.decs.dropOldest()
		}
		j.head++
	}
	if j.head > len(j.recs)/2 {
		n := copy(j.recs, j.recs[j.head:])
		j.recs = j.recs[:n]
		j.head = 0
	}
}

// Len returns the number of live entries (tests).
func (j *Journal) Len() int { return len(j.recs) - j.head }

// StackSize is one journal log's live entries and buffer capacity.
type StackSize struct {
	Name      string
	Live, Cap int
}

func sizeOf[T any](name string, s *jstack[T]) StackSize {
	return StackSize{name, len(s.items) - s.head, cap(s.items)}
}

// StackSizes reports every log of the journal, the central log first
// (tests).
func (j *Journal) StackSizes() []StackSize {
	return []StackSize{
		{"recs", j.Len(), cap(j.recs)},
		sizeOf("tlRecs", &j.tlRecs),
		sizeOf("tlConfs", &j.tlConfs),
		sizeOf("vrmtRecs", &j.vrmtRecs),
		sizeOf("vrmtOffs", &j.vrmtOffs),
		sizeOf("regAllocs", &j.regAllocs),
		sizeOf("elemUs", &j.elemUs),
		sizeOf("vsRecs", &j.vsRecs),
		sizeOf("u8s", &j.u8s),
		sizeOf("decs", &j.decs),
	}
}
