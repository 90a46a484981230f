package pipeline

import (
	"reflect"
	"testing"
	"unsafe"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// recordTrace records prog to target records, as the experiments Runner
// does.
func recordTrace(t *testing.T, prog *isa.Program, target int) *trace.Trace {
	t.Helper()
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(target)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayEquivalence runs every workload live (pipeline.New) and
// replaying its recording (trace.Replayer) under each configuration and
// requires the statistics to be deeply identical. The V configurations
// exercise store-conflict squashes (replay-window rewinds), which is
// where a wrong window would make replay diverge.
func TestReplayEquivalence(t *testing.T) {
	const scale = 6000
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeV),
		config.MustNamed(8, 1, config.ModeV),
		config.MustNamed(4, 2, config.ModeIM),
	}
	squashes := uint64(0)
	for _, bench := range workload.Names() {
		b, err := workload.Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		prog := b.Build(scale, 1)
		// One recording per benchmark, shared across configurations —
		// the exact shape the experiments Runner uses.
		tr := recordTrace(t, prog, scale+trace.RecordSlack)

		for _, cfg := range cfgs {
			live, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			liveStats, err := live.Run(scale)
			if err != nil {
				t.Fatalf("%s/%s: live run: %v", bench, cfg.Name, err)
			}
			squashes += liveStats.Squashed

			replay, err := NewFromSource(cfg, trace.NewReplayer(tr))
			if err != nil {
				t.Fatal(err)
			}
			replayStats, err := replay.Run(scale)
			if err != nil {
				t.Fatalf("%s/%s: replay run: %v", bench, cfg.Name, err)
			}
			if !reflect.DeepEqual(liveStats, replayStats) {
				t.Errorf("%s/%s: replay diverged from live:\nlive:   %s\nreplay: %s",
					bench, cfg.Name, liveStats.String(), replayStats.String())
			}
			if replay.Machine() != nil {
				t.Errorf("%s/%s: replay simulator claims a machine", bench, cfg.Name)
			}
		}
	}
	if squashes == 0 {
		t.Error("no squash exercised across the suite; equivalence test lost its teeth")
	}
}

// TestReplayWindow pins the simulator's replay window, through which
// fetch takes every record: each slot and uop carries a 56 B emu.Record,
// records come out in order, a rewind re-fetches identical records, a
// rewind outside the window (or forward) panics, and the steady state
// allocates nothing.
func TestReplayWindow(t *testing.T) {
	if rec, u := unsafe.Sizeof(emu.Record{}), unsafe.Sizeof(uop{}); rec != 56 || u != 224 {
		t.Errorf("emu.Record is %d B and uop %d B, want 56 and 224", rec, u)
	}
	b, err := workload.Get("swim")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTrace(t, b.Build(1<<20, 1), 20_000)
	newSim := func(t *testing.T) *Simulator {
		t.Helper()
		s, err := NewFromSource(config.MustNamed(4, 1, config.ModeV), trace.NewReplayer(tr))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	take := func(t *testing.T, s *Simulator) emu.Record {
		t.Helper()
		d, ok := s.next()
		if !ok {
			t.Fatalf("window ran dry at %d of %d records", s.fetchSeq, tr.Len())
		}
		return *d
	}

	t.Run("in-order", func(t *testing.T) {
		s := newSim(t)
		var want emu.Record
		rp := trace.NewReplayer(tr)
		for i := 0; i < tr.Len(); i++ {
			rp.Next(&want)
			if got := take(t, s); got != want {
				t.Fatalf("record %d:\nwant %+v\ngot  %+v", i, want, got)
			}
		}
		if _, ok := s.next(); ok {
			t.Error("window served a record past the end of the trace")
		}
	})

	t.Run("refetch", func(t *testing.T) {
		s := newSim(t)
		n := uint64(len(s.ring))
		first := make([]emu.Record, 3*n)
		for i := range first {
			first[i] = take(t, s)
		}
		// The oldest record still in the window, then a mid-window one.
		for _, seq := range []uint64{2 * n, 2*n + n/2} {
			s.rewind(seq)
			for i := seq; i < 3*n; i++ {
				if got := take(t, s); got != first[i] {
					t.Fatalf("refetched record %d differs:\nfirst %+v\nagain %+v", i, first[i], got)
				}
			}
		}
	})

	t.Run("out-of-window-panics", func(t *testing.T) {
		s := newSim(t)
		n := uint64(len(s.ring))
		for i := uint64(0); i < n+10; i++ {
			take(t, s)
		}
		for _, c := range []struct {
			name string
			seq  uint64
		}{{"outside the window", 9}, {"forward", n + 11}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("rewind %s did not panic", c.name)
					}
				}()
				s.rewind(c.seq)
			}()
		}
	})

	t.Run("steady-state-allocs", func(t *testing.T) {
		s := newSim(t)
		avg := testing.AllocsPerRun(200, func() {
			for i := 0; i < 64; i++ {
				if _, ok := s.next(); !ok {
					t.Fatal("trace too short for the allocation run")
				}
			}
			s.rewind(s.fetchSeq - 32) // squash-style re-fetch
		})
		if avg != 0 {
			t.Errorf("replay window allocates %.2f allocs per 64-record batch, want 0", avg)
		}
	})
}

// TestRecordSlackCoversMatrix pins the invariant trace.RecordSlack
// documents: a recording extended RecordSlack past the commit limit can
// feed a replay under every configuration of the experiment sweep (the
// replayer fetches at most SourceWindow records past the last commit).
func TestRecordSlackCoversMatrix(t *testing.T) {
	for _, cfg := range config.Matrix() {
		if w := SourceWindow(cfg); w > trace.RecordSlack {
			t.Errorf("%s: SourceWindow %d exceeds trace.RecordSlack %d; runs of that configuration would fail the interval check",
				cfg.Name, w, trace.RecordSlack)
		}
	}
}
