package pipeline

import (
	"context"
	"errors"
	"testing"

	"specvec/internal/config"
	"specvec/internal/isa"
	"specvec/internal/workload"
)

func intervalSim(t *testing.T, cfg config.Config, prog *isa.Program) *Simulator {
	t.Helper()
	sim, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func intervalProg(t *testing.T, bench string) *isa.Program {
	t.Helper()
	b, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	return b.Build(10_000, 1)
}

// TestRunCancelled pins the service-layer contract: a cancelled context
// stops a run early with the context's error, well before the commit
// limit.
func TestRunCancelled(t *testing.T) {
	prog := intervalProg(t, "compress")
	cfg := config.MustNamed(4, 1, config.ModeV)
	sim := intervalSim(t, cfg, prog)

	ctx, cancel := context.WithCancel(context.Background())
	sim.SetContext(ctx)
	var fired bool
	sim.SetProgress(500, func(committed uint64) {
		if !fired {
			fired = true
			cancel()
		}
	})
	st, err := sim.Run(1 << 62)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !fired {
		t.Fatal("progress callback never fired")
	}
	// The poll interval (4096 cycles) bounds how far past the cancellation
	// the run got: at most one poll window of commits.
	if st.Committed > 500+uint64(cfg.CommitWidth)*2*4096 {
		t.Fatalf("run continued long after cancel: %d committed", st.Committed)
	}
}

// TestProgressDoesNotPerturbResults asserts a run observed through
// SetContext/SetProgress stays byte-identical to an unobserved one.
func TestProgressDoesNotPerturbResults(t *testing.T) {
	prog := intervalProg(t, "compress")
	cfg := config.MustNamed(4, 1, config.ModeV)

	plain, err := intervalSim(t, cfg, prog).Run(8000)
	if err != nil {
		t.Fatal(err)
	}
	observed := intervalSim(t, cfg, prog)
	observed.SetContext(context.Background())
	ticks := 0
	observed.SetProgress(1000, func(uint64) { ticks++ })
	got, err := observed.Run(8000)
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("no progress ticks over 8000 committed instructions")
	}
	if plain.String() != got.String() {
		t.Fatalf("observed run diverged:\n%s\nvs\n%s", plain, got)
	}
}
