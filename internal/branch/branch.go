package branch

import "specvec/internal/isa"

// Config sizes the predictor structures.
type Config struct {
	TableBits   int // log2 of the counter table size (16 -> 64K entries)
	HistoryBits int // global history length
	BTBEntries  int // direct-mapped BTB size for indirect targets
	RASDepth    int // return address stack depth
}

// DefaultConfig matches Table 1 (gshare, 64K entries).
func DefaultConfig() Config {
	return Config{TableBits: 16, HistoryBits: 16, BTBEntries: 2048, RASDepth: 32}
}

// Predictor holds all front-end prediction state.
type Predictor struct {
	cfg      Config
	table    []uint8 // 2-bit saturating counters
	history  uint64
	histMask uint64

	btbTags    []uint64
	btbTargets []uint64

	ras    []uint64
	rasTop int
}

// New returns a predictor for cfg.
func New(cfg Config) *Predictor {
	if cfg.TableBits <= 0 {
		cfg = DefaultConfig()
	}
	p := &Predictor{
		cfg:        cfg,
		table:      make([]uint8, 1<<cfg.TableBits),
		histMask:   (1 << cfg.HistoryBits) - 1,
		btbTags:    make([]uint64, cfg.BTBEntries),
		btbTargets: make([]uint64, cfg.BTBEntries),
		ras:        make([]uint64, cfg.RASDepth),
	}
	// Weakly taken initial state: loops predict well immediately, matching
	// the usual simulator warm state.
	for i := range p.table {
		p.table[i] = 2
	}
	return p
}

func (p *Predictor) index(pc uint64) uint64 {
	return (pc ^ (p.history & p.histMask)) & uint64(len(p.table)-1)
}

// PredictCond predicts the direction of the conditional branch at pc.
func (p *Predictor) PredictCond(pc uint64) bool {
	return p.table[p.index(pc)] >= 2
}

// UpdateCond trains the predictor with the resolved outcome and shifts the
// global history. The simulator is trace-driven, so prediction and update
// happen at the same model point; accuracy matches a speculatively-updated,
// repair-on-mispredict history.
func (p *Predictor) UpdateCond(pc uint64, taken bool) {
	idx := p.index(pc)
	c := p.table[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.table[idx] = c
	p.history = (p.history << 1) | boolBit(taken)
}

// PredictIndirect predicts the target of a register-indirect jump at pc.
// ok is false when the BTB has no entry (a cold miss — always mispredicted).
func (p *Predictor) PredictIndirect(pc uint64) (target uint64, ok bool) {
	i := pc % uint64(len(p.btbTags))
	if p.btbTags[i] != pc+1 { // +1 so the zero value means empty
		return 0, false
	}
	return p.btbTargets[i], true
}

// UpdateIndirect records the resolved target of the indirect jump at pc.
func (p *Predictor) UpdateIndirect(pc, target uint64) {
	i := pc % uint64(len(p.btbTags))
	p.btbTags[i] = pc + 1
	p.btbTargets[i] = target
}

// Call pushes a return address on the RAS (jal).
func (p *Predictor) Call(returnPC uint64) {
	p.ras[p.rasTop%len(p.ras)] = returnPC
	p.rasTop++
}

// PredictReturn pops the RAS; ok is false when the stack is empty.
func (p *Predictor) PredictReturn() (target uint64, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Predict classifies one control instruction and returns the predicted
// next PC plus whether the (direction, target) prediction was correct given
// the actual outcome. It also trains all structures. Non-control
// instructions return (pc+1, true).
func (p *Predictor) Predict(pc uint64, in isa.Inst, actualTaken bool, actualTarget uint64) (predictedNext uint64, correct bool) {
	switch {
	case in.IsBranch():
		pred := p.PredictCond(pc)
		p.UpdateCond(pc, actualTaken)
		if pred {
			predictedNext = uint64(in.Imm)
		} else {
			predictedNext = pc + 1
		}
		return predictedNext, pred == actualTaken
	case in.Op == isa.OpJ:
		return uint64(in.Imm), true
	case in.Op == isa.OpJal:
		p.Call(pc + 1)
		return uint64(in.Imm), true
	case in.Op == isa.OpJr:
		// Returns (jr r31) consult the RAS; other indirect jumps the BTB.
		var pred uint64
		var ok bool
		if in.Rs1 == isa.IntReg(31) {
			pred, ok = p.PredictReturn()
		}
		if !ok {
			pred, ok = p.PredictIndirect(pc)
		}
		p.UpdateIndirect(pc, actualTarget)
		return pred, ok && pred == actualTarget
	default:
		return pc + 1, true
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
