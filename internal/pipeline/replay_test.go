package pipeline

import (
	"reflect"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// TestReplayEquivalence runs every workload three ways under each
// configuration — live (emu.Stream), recording (trace.Recorder) and
// replaying the finished recording (trace.Replayer) — and requires the
// three statistics to be deeply identical. The V configurations exercise
// store-conflict squashes (stream rewinds), which is where a replayer
// with wrong window semantics would diverge.
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
		mach, err := emu.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecorder(mach, prog, SourceWindow(cfgs[0]))
		if err != nil {
			t.Fatal(err)
		}
		recSim, err := NewFromSource(cfgs[0], rec)
		if err != nil {
			t.Fatal(err)
		}
		recStats, err := recSim.Run(scale)
		if err != nil {
			t.Fatalf("%s: recording run: %v", bench, err)
		}
		tr, err := rec.Finish(scale + trace.RecordSlack)
		if err != nil {
			t.Fatalf("%s: finish: %v", bench, err)
		}

		for i, cfg := range cfgs {
			live, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			liveStats, err := live.Run(scale)
			if err != nil {
				t.Fatalf("%s/%s: live run: %v", bench, cfg.Name, err)
			}
			squashes += liveStats.Squashed

			if i == 0 && !reflect.DeepEqual(liveStats, recStats) {
				t.Errorf("%s/%s: recording run diverged from live:\nlive: %s\nrec:  %s",
					bench, cfg.Name, liveStats.String(), recStats.String())
			}

			replay, err := NewFromSource(cfg, trace.NewReplayer(tr, SourceWindow(cfg)))
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
