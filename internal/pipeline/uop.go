package pipeline

import (
	"specvec/internal/emu"
	"specvec/internal/isa"
)

// uopKind distinguishes normal execution from the paper's validation
// operations.
type uopKind uint8

const (
	kindNormal uopKind = iota
	// kindLoadValidation checks the predicted address of one vector
	// element instead of accessing memory.
	kindLoadValidation
	// kindArithValidation checks recorded source operands instead of
	// executing on a functional unit.
	kindArithValidation
)

// uopRef is a generation-checked reference to a pooled uop. When the
// referenced uop is recycled its generation moves on; a stale reference
// then reads as "completed" — the only way a uop leaves the pipeline while
// references to it survive is by committing (squashes flush referer and
// referee together).
type uopRef struct {
	u   *uop
	gen uint64
}

// completed reports whether the referenced producer's result is available
// at cycle. A nil or stale (recycled ⇒ committed) reference is complete.
func (r uopRef) completed(cycle uint64) bool {
	return r.u == nil || r.u.gen != r.gen || r.u.completed(cycle)
}

// inFlight reports whether the reference still names a live, uncompleted
// uop.
func (r uopRef) inFlight(cycle uint64) bool {
	return r.u != nil && r.u.gen == r.gen && !r.u.completed(cycle)
}

// uop is one in-flight dynamic instruction. uops are pool-allocated and
// recycled at commit or squash; all cross-uop references go through
// generation-checked uopRefs.
type uop struct {
	d emu.Record

	gen  uint64 // bumped on every recycle; validates uopRefs
	kind uopKind

	// deps are the in-flight producers of the register sources, aligned
	// with isa.Inst.SrcRegs order (zero ref = value already
	// committed/ready).
	deps [2]uopRef

	issued bool
	doneAt uint64 // result/completion cycle; valid once issued

	// Issue-stage scheduling state (see issue.go): readyAt is the earliest
	// cycle the register sources allow issue (known once every in-flight
	// producer has issued); pendingDeps counts producers that have not yet
	// issued (doneAt unknown); waiters are consumers to notify when this
	// uop issues; iqIdx is the current position in the issue queue.
	readyAt     uint64
	pendingDeps int8
	iqIdx       int32
	waiters     []uopRef

	// Memory state.
	inLSQ  bool
	lsqPos uint64 // absolute LSQ ring position (valid while inLSQ)

	// SDV state for validations.
	vreg        int
	vepoch      uint64
	elem        int
	producer    *vop   // vector instance producing the awaited element
	producerGen uint64 // generation of producer at capture
	fellBack    bool   // validation converted to scalar execution

	// Control state.
	mispredicted  bool  // direction/target prediction was wrong at fetch
	statsCounted  bool  // fetched before (replay after squash): skip stats
	blockedCycles uint8 // decode stalls spent waiting for a scalar operand
}

func (u *uop) completed(cycle uint64) bool { return u.issued && u.doneAt <= cycle }

// depsReady reports whether every register source has its value available.
func (u *uop) depsReady(cycle uint64) bool {
	return u.deps[0].completed(cycle) && u.deps[1].completed(cycle)
}

// addrReady reports whether a memory op's address operands are available
// (source 0 is the base register for loads and stores).
func (u *uop) addrReady(cycle uint64) bool { return u.deps[0].completed(cycle) }

// dataReady reports whether a store's data operand is available.
func (u *uop) dataReady(cycle uint64) bool { return u.deps[1].completed(cycle) }

// isValidation reports whether the uop is a check operation.
func (u *uop) isValidation() bool {
	return u.kind == kindLoadValidation || u.kind == kindArithValidation
}

// wordAddr returns the 8-byte-aligned address of a memory op.
func (u *uop) wordAddr() uint64 { return u.d.EffAddr() &^ uint64(isa.WordBytes-1) }

// liveProducer returns the producing vector instance if the reference is
// still current, nil otherwise (recycled instance: it either finished —
// every element scheduled — or aborted).
func (u *uop) liveProducer() *vop {
	if u.producer != nil && u.producer.gen == u.producerGen {
		return u.producer
	}
	return nil
}

// uopPool is a free list of uops. get returns a fully zeroed uop (fresh
// generation); put recycles one, invalidating outstanding uopRefs.
type uopPool struct {
	free []*uop

	// Counters for internal/profile reporting.
	news     uint64 // pool misses: heap allocations
	recycles uint64 // puts
}

func (p *uopPool) get() *uop {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		return u
	}
	p.news++
	return &uop{}
}

func (p *uopPool) put(u *uop) {
	p.recycles++
	gen := u.gen + 1
	waiters := u.waiters[:0]
	*u = uop{gen: gen, waiters: waiters}
	p.free = append(p.free, u)
}

// vsrc is one source of a vector instance.
type vsrc struct {
	kind   isVec
	vreg   int
	vepoch uint64
	start  int // element offset of the source at instance creation (§3.4)
}

type isVec uint8

const (
	srcNone isVec = iota
	srcVector
	srcReady // scalar or immediate: available from instance creation
)

// loadGroup is one memory access of a vector load: the elements served by
// a single bus transaction (a whole line on the wide bus, one element on a
// scalar bus). elems points into the owning vop's elemsBuf scratch.
type loadGroup struct {
	addr  uint64 // address to access (line-aligned for wide buses)
	elems []int
}

// vop is one vector instance in the vector issue queue. Vector instances
// are not architectural: they occupy no ROB entry, survive branch flushes,
// and write element R flags with real timing. vops are pool-allocated and
// recycled when they drain or abort; uops reference them through
// (pointer, generation) pairs.
type vop struct {
	gen uint64 // bumped on every recycle

	isLoad bool
	op     isa.Op // latency/pool class for arithmetic instances

	vreg   int
	vepoch uint64

	destStart int // first element to compute (§3.4)
	nextElem  int // next element index to schedule (arith)

	srcs [2]vsrc

	vl int // vector length (elements per register)

	// Load state. groups and elemsBuf are pool-owned scratch reused across
	// recycles: groups[i].elems are subslices of elemsBuf.
	groups    []loadGroup
	elemsBuf  []int
	nextGroup int

	aborted bool
}

func (v *vop) done() bool {
	if v.aborted {
		return true
	}
	if v.isLoad {
		return v.nextGroup >= len(v.groups)
	}
	return v.nextElem >= v.vl
}

// vopPool is a free list of vector instances.
type vopPool struct {
	free []*vop

	news     uint64
	recycles uint64
}

func (p *vopPool) get() *vop {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	p.news++
	return &vop{}
}

func (p *vopPool) put(v *vop) {
	p.recycles++
	gen := v.gen + 1
	groups := v.groups[:0]
	elems := v.elemsBuf[:0]
	*v = vop{gen: gen, groups: groups, elemsBuf: elems}
	p.free = append(p.free, v)
}

// uopRing is a fixed-capacity FIFO over a power-of-two ring, used for the
// program-ordered windows (ROB, LSQ, fetch buffer) so steady-state
// operation never reallocates. Entries are addressed by absolute position
// (monotonic), which the LSQ uses to walk older stores without scanning.
type uopRing struct {
	buf  []*uop
	mask uint64
	head uint64 // absolute position of the oldest entry
	tail uint64 // absolute position one past the newest
}

func newUopRing(capacity int) *uopRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &uopRing{buf: make([]*uop, n), mask: uint64(n - 1)}
}

func (r *uopRing) len() int   { return int(r.tail - r.head) }
func (r *uopRing) full() bool { return r.tail-r.head == uint64(len(r.buf)) }

// push appends u and returns its absolute position.
func (r *uopRing) push(u *uop) uint64 {
	pos := r.tail
	r.buf[pos&r.mask] = u
	r.tail++
	return pos
}

func (r *uopRing) front() *uop { return r.buf[r.head&r.mask] }

func (r *uopRing) popFront() *uop {
	u := r.buf[r.head&r.mask]
	r.buf[r.head&r.mask] = nil
	r.head++
	return u
}

// at returns the entry at absolute position pos (head <= pos < tail).
func (r *uopRing) at(pos uint64) *uop { return r.buf[pos&r.mask] }

func (r *uopRing) clear() {
	for p := r.head; p < r.tail; p++ {
		r.buf[p&r.mask] = nil
	}
	r.head, r.tail = 0, 0
}

// fuPool models one functional-unit pool. Pipelined operations occupy a
// unit for one cycle; unpipelined ones (divides) hold it for their full
// latency (Table 1).
type fuPool struct {
	units []uint64 // busy-until cycle per unit
}

func newFUPool(n int) *fuPool { return &fuPool{units: make([]uint64, n)} }

// tryIssue claims a unit at cycle; returns false when all are busy.
func (p *fuPool) tryIssue(cycle uint64, lat int, pipelined bool) bool {
	for i, busy := range p.units {
		if busy <= cycle {
			if pipelined {
				p.units[i] = cycle + 1
			} else {
				p.units[i] = cycle + uint64(lat)
			}
			return true
		}
	}
	return false
}
