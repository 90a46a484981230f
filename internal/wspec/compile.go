package wspec

import (
	"fmt"
	"strings"

	"specvec/internal/isa"
	"specvec/internal/workload"
)

// The compiler turns a validated Spec into a workload.Benchmark whose
// Build emits an isa.Program. Generation is fully deterministic: data
// arrays come from a splitmix64 stream seeded by mixSeed(runner seed,
// spec seed, block index), instruction sequences depend only on the
// block parameters, and nothing reads maps in iteration order — so the
// same (spec, seed) always yields a byte-identical program.

// Register conventions, mirroring internal/workload: r29/r28 are the
// outer-loop counter and bound, r0 stays zero, everything below is
// scratch the block emitters may clobber.
var (
	rZero = isa.IntReg(0)
	rIter = isa.IntReg(29)
	rLim  = isa.IntReg(28)
)

func ri(i int) isa.Reg { return isa.IntReg(i) }
func rf(i int) isa.Reg { return isa.FPReg(i) }

// sm64 is splitmix64 — a different family from internal/workload's LCG,
// so generated data streams never alias built-in ones.
type sm64 struct{ s uint64 }

func (r *sm64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *sm64) words(n int, mod uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if mod == 0 {
			out[i] = r.next()
		} else {
			out[i] = r.next() % mod
		}
	}
	return out
}

func (r *sm64) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.next()%1_000_000+1) / 1_000_000
	}
	return out
}

// blockRng derives the data stream for one block. The runner seed, the
// workload's spec seed and the block index all feed the state, so
// distinct seeds (and distinct blocks) draw from distinct streams.
func blockRng(runnerSeed, specSeed int64, block int) *sm64 {
	r := &sm64{s: uint64(runnerSeed)}
	r.s = r.next() ^ uint64(specSeed)
	r.s = r.next() + uint64(block)*0x9e3779b97f4a7c15
	return r
}

// CompileSpec compiles one workload spec into a runnable benchmark. The
// spec must come from Parse (defaults resolved, validated).
func CompileSpec(s Spec) workload.Benchmark {
	spec := s
	spec.Blocks = append([]Block{}, s.Blocks...)
	return workload.Benchmark{
		Name:        spec.Name,
		FP:          spec.FP,
		Generated:   true,
		Digest:      Digest(spec),
		Description: describe(spec),
		Build: func(scale int, seed int64) *isa.Program {
			return buildSpec(spec, scale, seed)
		},
	}
}

// describe summarises the block composition for workload listings.
func describe(s Spec) string {
	parts := make([]string, len(s.Blocks))
	for i, b := range s.Blocks {
		parts[i] = blockLabel(b)
	}
	return "Spec-generated workload: " + strings.Join(parts, ", ") + "."
}

func blockLabel(b Block) string {
	switch b.Gen {
	case "stride":
		return fmt.Sprintf("stride(elems=%d stride=%d stores=%d%%)", b.Elems, b.Stride, b.Stores)
	case "gather", "scatter":
		return fmt.Sprintf("%s(table=%d span=%d count=%d)", b.Gen, b.Table, b.Span, b.Count)
	case "chase":
		shuf := ""
		if b.Shuffle {
			shuf = " shuffled"
		}
		return fmt.Sprintf("chase(nodes=%d depth=%d%s)", b.Nodes, b.Depth, shuf)
	case "branch":
		return fmt.Sprintf("branch(count=%d entropy=%d%%)", b.Count, b.Entropy)
	case "depchain":
		return fmt.Sprintf("depchain(count=%d distance=%d)", b.Count, b.Distance)
	case "mix":
		return fmt.Sprintf("mix(count=%d fp=%d%%)", b.Count, b.FPPercent)
	default:
		return b.Gen
	}
}

func buildSpec(s Spec, scale int, seed int64) *isa.Program {
	b := isa.NewBuilder(s.Name)
	var bodies []func()
	total := 0
	for i, blk := range s.Blocks {
		body, cost := emitBlock(b, fmt.Sprintf("b%d", i), blk, blockRng(seed, s.Seed, i))
		bodies = append(bodies, body)
		total += cost
	}
	reps := scale / total
	if reps < 1 {
		reps = 1
	}
	b.Li(rIter, 0)
	b.Li(rLim, int64(reps))
	b.Label("spec_outer")
	for _, body := range bodies {
		body()
	}
	b.Addi(rIter, rIter, 1)
	b.Blt(rIter, rLim, "spec_outer")
	b.Halt()
	return b.MustBuild()
}

// emitBlock places the block's data now and returns the code emitter for
// the outer-loop body plus an analytic per-outer-iteration dynamic
// instruction cost used to size the trip count.
func emitBlock(b *isa.Builder, pfx string, blk Block, r *sm64) (func(), int) {
	switch blk.Gen {
	case "stride":
		return emitStride(b, pfx, blk, r)
	case "gather":
		return emitProbe(b, pfx, blk, r, false)
	case "scatter":
		return emitProbe(b, pfx, blk, r, true)
	case "chase":
		return emitChase(b, pfx, blk, r)
	case "branch":
		return emitBranch(b, pfx, blk, r)
	case "depchain":
		return emitDepchain(b, pfx, blk)
	case "mix":
		return emitMix(b, pfx, blk, r)
	default:
		// validate() guarantees a known generator.
		panic("wspec: unknown generator " + blk.Gen)
	}
}

// emitStride: walk elems loads at a fixed element stride, accumulating,
// then store the sum back over stores% of the walked elements. Every
// static load keeps a constant address delta, so the stride predictor
// gains full confidence (including the stride-0 case).
func emitStride(b *isa.Builder, pfx string, blk Block, r *sm64) (func(), int) {
	footprint := (blk.Elems-1)*blk.Stride + 1
	b.DataWords(pfx+"_arr", r.words(footprint, 1<<20))
	storeCount := blk.Elems * blk.Stores / 100
	if storeCount > 0 {
		b.DataZero(pfx+"_out", storeCount)
	}
	body := func() {
		b.LoadAddr(ri(1), pfx+"_arr")
		b.Li(ri(2), 0)
		b.Li(ri(3), int64(blk.Elems))
		b.Li(ri(5), 0) // accumulator
		b.Label(pfx + "_walk")
		b.Ld(ri(4), ri(1), 0)
		b.Add(ri(5), ri(5), ri(4))
		b.Addi(ri(1), ri(1), int64(blk.Stride)*isa.WordBytes)
		b.Addi(ri(2), ri(2), 1)
		b.Blt(ri(2), ri(3), pfx+"_walk")
		if storeCount > 0 {
			b.LoadAddr(ri(1), pfx+"_out")
			b.Li(ri(2), 0)
			b.Li(ri(3), int64(storeCount))
			b.Label(pfx + "_store")
			b.St(ri(5), ri(1), 0)
			b.Addi(ri(1), ri(1), isa.WordBytes)
			b.Addi(ri(2), ri(2), 1)
			b.Blt(ri(2), ri(3), pfx+"_store")
		}
	}
	cost := 4 + blk.Elems*5
	if storeCount > 0 {
		cost += 3 + storeCount*4
	}
	return body, cost
}

// emitProbe: gather (loads) or scatter (stores) through a seed-random
// index table into a span-word target, wrapping over the table when
// count exceeds it. Probe addresses are data-dependent, so they defeat
// stride prediction the way hash probes do.
func emitProbe(b *isa.Builder, pfx string, blk Block, r *sm64, store bool) (func(), int) {
	b.DataWords(pfx+"_idx", r.words(blk.Table, uint64(blk.Span)))
	if store {
		b.DataZero(pfx+"_tgt", blk.Span)
	} else {
		b.DataWords(pfx+"_tgt", r.words(blk.Span, 1<<20))
	}
	body := func() {
		b.LoadAddr(ri(1), pfx+"_idx")
		b.LoadAddr(ri(2), pfx+"_tgt")
		b.Li(ri(3), 0) // probes issued
		b.Li(ri(4), int64(blk.Count))
		b.Li(ri(8), 0) // accumulator
		b.Li(ri(9), 0) // table cursor
		b.Li(ri(10), int64(blk.Table))
		b.Label(pfx + "_probe")
		b.Ld(ri(5), ri(1), 0)
		b.Slli(ri(5), ri(5), 3)
		b.Add(ri(6), ri(2), ri(5))
		if store {
			b.St(ri(3), ri(6), 0)
		} else {
			b.Ld(ri(7), ri(6), 0)
			b.Add(ri(8), ri(8), ri(7))
		}
		b.Addi(ri(1), ri(1), isa.WordBytes)
		b.Addi(ri(9), ri(9), 1)
		b.Blt(ri(9), ri(10), pfx+"_nowrap")
		b.LoadAddr(ri(1), pfx+"_idx")
		b.Li(ri(9), 0)
		b.Label(pfx + "_nowrap")
		b.Addi(ri(3), ri(3), 1)
		b.Blt(ri(3), ri(4), pfx+"_probe")
	}
	per := 9
	if !store {
		per = 10
	}
	return body, 7 + blk.Count*per
}

// emitChase: walk a linked list of two-word cells [next index, payload]
// for depth steps. The next-index load feeds the following iteration's
// address, forming a true pointer chase; with shuffle the links are a
// Sattolo cycle, otherwise sequential (a learnable stride-2 pattern).
func emitChase(b *isa.Builder, pfx string, blk Block, r *sm64) (func(), int) {
	n := blk.Nodes
	next := make([]int, n)
	if blk.Shuffle {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		// Sattolo's algorithm: the resulting permutation is one cycle.
		for i := n - 1; i > 0; i-- {
			j := int(r.next() % uint64(i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		copy(next, perm)
	} else {
		for i := range next {
			next[i] = (i + 1) % n
		}
	}
	cells := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		cells[2*i] = uint64(next[i])
		cells[2*i+1] = r.next() % (1 << 20)
	}
	b.DataWords(pfx+"_list", cells)
	body := func() {
		b.LoadAddr(ri(1), pfx+"_list")
		b.Li(ri(2), 0) // current node index
		b.Li(ri(3), 0) // steps taken
		b.Li(ri(4), int64(blk.Depth))
		b.Li(ri(8), 0) // accumulator
		b.Label(pfx + "_chase")
		b.Slli(ri(5), ri(2), 4) // 16-byte cells
		b.Add(ri(6), ri(1), ri(5))
		b.Ld(ri(7), ri(6), isa.WordBytes)
		b.Add(ri(8), ri(8), ri(7))
		b.Ld(ri(2), ri(6), 0)
		b.Addi(ri(3), ri(3), 1)
		b.Blt(ri(3), ri(4), pfx+"_chase")
	}
	return body, 5 + blk.Depth*7
}

// emitBranch: count data-dependent branches over an outcome array.
// entropy% of the outcomes are coin flips, the rest always fall
// through, dialling predictability from perfect to none.
func emitBranch(b *isa.Builder, pfx string, blk Block, r *sm64) (func(), int) {
	outcomes := make([]uint64, blk.Count)
	for i := range outcomes {
		if r.next()%100 < uint64(blk.Entropy) {
			outcomes[i] = r.next() & 1
		}
	}
	b.DataWords(pfx+"_dir", outcomes)
	body := func() {
		b.LoadAddr(ri(1), pfx+"_dir")
		b.Li(ri(2), 0)
		b.Li(ri(3), int64(blk.Count))
		b.Li(ri(5), 0)
		b.Label(pfx + "_loop")
		b.Ld(ri(4), ri(1), 0)
		b.Bne(ri(4), rZero, pfx+"_taken")
		b.Addi(ri(5), ri(5), 1)
		b.J(pfx + "_join")
		b.Label(pfx + "_taken")
		b.Addi(ri(5), ri(5), 3)
		b.Xor(ri(6), ri(5), ri(2))
		b.Label(pfx + "_join")
		b.Addi(ri(1), ri(1), isa.WordBytes)
		b.Addi(ri(2), ri(2), 1)
		b.Blt(ri(2), ri(3), pfx+"_loop")
	}
	return body, 4 + blk.Count*7
}

// emitDepchain: count accumulations split across distance rotating
// accumulator registers, so each update depends on the one distance
// logical iterations earlier — the serialisation knob for loop-carried
// dependences.
func emitDepchain(b *isa.Builder, pfx string, blk Block) (func(), int) {
	d := blk.Distance
	trips := blk.Count / d
	if trips < 1 {
		trips = 1
	}
	body := func() {
		for k := 0; k < d; k++ {
			b.Li(ri(1+k), int64(k+1))
		}
		b.Li(ri(20), 0)
		b.Li(ri(21), int64(trips))
		b.Label(pfx + "_chain")
		for k := 0; k < d; k++ {
			b.Addi(ri(1+k), ri(1+k), 3)
		}
		b.Addi(ri(20), ri(20), 1)
		b.Blt(ri(20), ri(21), pfx+"_chain")
	}
	return body, d + 2 + trips*(d+2)
}

// emitMix: count iterations each loading one int and one float operand
// and issuing eight arithmetic slots, fpPercent of them floating-point,
// interleaved Bresenham-style so the mix is even rather than clustered.
func emitMix(b *isa.Builder, pfx string, blk Block, r *sm64) (func(), int) {
	const opTab = 64
	b.DataWords(pfx+"_ia", r.words(opTab, 1<<20))
	b.DataFloats(pfx+"_fa", r.floats(opTab))
	body := func() {
		b.LoadAddr(ri(1), pfx+"_ia")
		b.LoadAddr(ri(2), pfx+"_fa")
		b.Li(ri(3), 0)
		b.Li(ri(4), int64(blk.Count))
		b.Li(ri(9), 0)
		b.Ldf(rf(2), ri(2), 0)
		b.Ldf(rf(3), ri(2), isa.WordBytes)
		b.Label(pfx + "_mix")
		b.Andi(ri(5), ri(3), opTab-1)
		b.Slli(ri(5), ri(5), 3)
		b.Add(ri(6), ri(1), ri(5))
		b.Ld(ri(7), ri(6), 0)
		b.Add(ri(8), ri(2), ri(5))
		b.Ldf(rf(1), ri(8), 0)
		acc := 0
		for slot := 0; slot < 8; slot++ {
			acc += blk.FPPercent
			if acc >= 100 {
				acc -= 100
				if slot%2 == 0 {
					b.Fmul(rf(2), rf(2), rf(1))
				} else {
					b.Fadd(rf(3), rf(3), rf(1))
				}
			} else {
				if slot%2 == 0 {
					b.Add(ri(9), ri(9), ri(7))
				} else {
					b.Xor(ri(9), ri(9), ri(7))
				}
			}
		}
		b.Addi(ri(3), ri(3), 1)
		b.Blt(ri(3), ri(4), pfx+"_mix")
	}
	return body, 7 + blk.Count*16
}
