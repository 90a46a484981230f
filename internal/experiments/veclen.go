package experiments

import (
	"fmt"

	"specvec/internal/emu"
	"specvec/internal/obs"
)

// meanRunLength measures, per static load, the lengths of maximal
// constant-stride runs over the benchmark's dynamic stream, returning
// their mean (runs of length >= 2 only: a "run" of one repeat is not a
// pattern). The stream comes from the runner's shared recording.
func meanRunLength(r *Runner, bench string) (float64, error) {
	type state struct {
		lastAddr uint64
		stride   int64
		runLen   int
		seen     bool
		haveStr  bool
	}
	loads := map[uint64]*state{}
	var totalLen, runs uint64

	closeRun := func(st *state) {
		if st.runLen >= 2 {
			totalLen += uint64(st.runLen)
			runs++
		}
		st.runLen = 0
	}
	observe := func(d *emu.Record) {
		if !d.Inst.IsLoad() {
			return
		}
		addr, st := d.EffAddr(), loads[d.PC]
		if st == nil {
			st = &state{}
			loads[d.PC] = st
		}
		switch {
		case !st.seen:
			st.seen = true
		case !st.haveStr:
			st.stride = int64(addr - st.lastAddr)
			st.haveStr = true
			st.runLen = 2
		default:
			if s := int64(addr - st.lastAddr); s == st.stride {
				st.runLen++
			} else {
				closeRun(st)
				st.stride = s
				st.runLen = 2
			}
		}
		st.lastAddr = addr
	}

	budget := r.opts.Scale
	if err := r.eachRecord(bench, budget, observe); err != nil {
		return 0, err
	}
	for _, st := range loads {
		closeRun(st)
	}
	if runs == 0 {
		return 0, nil
	}
	return float64(totalLen) / float64(runs), nil
}

// eachRecord yields the first budget records of the benchmark's dynamic
// stream from the shared recording — the same one the timing runs
// replay. It is a consumer of the recording like a run: it admits
// itself, and gets, walks and releases the recording on one pool slot.
// The "record" span, if this call leads the recording, parents under
// whatever span the job's context carries: a stream-only experiment has
// no per-run span of its own.
func (r *Runner) eachRecord(bench string, budget int, yield func(*emu.Record)) error {
	r.admit(bench)
	err := r.slot(func() error {
		tr, err := r.recording(bench, obs.FromContext(r.ctx))
		if err != nil {
			return err
		}
		defer r.release(bench)
		if !tr.Halted() && tr.Len() < budget {
			return fmt.Errorf("%w: stream pass needs %d records, recording has %d",
				ErrIntervalOutOfRange, budget, tr.Len())
		}
		var d emu.Record
		for i, n := 0, min(tr.Len(), budget); i < n; i++ {
			tr.Record(i, &d)
			yield(&d)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", bench, err)
	}
	return nil
}
