package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strings"
	"testing"

	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// diskCorruptions are the ways a disk-tier file goes bad: writes torn at
// several lengths and single flipped bits, early and late in the file.
var diskCorruptions = []struct {
	name string
	mut  func([]byte) []byte
}{
	{"empty", func(b []byte) []byte { return b[:0] }},
	{"torn-in-digest", func(b []byte) []byte { return b[:sha256.Size-1] }},
	{"torn-half", func(b []byte) []byte { return b[:len(b)/2] }},
	{"torn-last-byte", func(b []byte) []byte { return b[:len(b)-1] }},
	{"bitflip-head", func(b []byte) []byte { b[3] ^= 0x08; return b }},
	{"bitflip-tail", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }},
}

// corruptFile rewrites path through mut.
func corruptFile(t *testing.T, path string, mut func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mut(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireGone fails unless path no longer exists.
func requireGone(t *testing.T, name, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s: corrupt file %s was kept (stat: %v)", name, path, err)
	}
}

// errMiss fails a lookup's computation, so the lookup only reads.
var errMiss = errors.New("miss")

// loadTrace looks compress's recording up in tc without recording it.
func loadTrace(tc *traceCache, opts experiments.Options) (*trace.Trace, bool) {
	tr, err := scopeTraces(tc, opts).GetOrCompute(context.Background(), "compress", func() (*trace.Trace, error) {
		return nil, errMiss
	})
	return tr, err == nil
}

// storeTrace hands tr to tc as compress's freshly made recording.
func storeTrace(t *testing.T, tc *traceCache, opts experiments.Options, tr *trace.Trace) {
	t.Helper()
	if _, err := scopeTraces(tc, opts).GetOrCompute(context.Background(), "compress", func() (*trace.Trace, error) {
		return tr, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDiskCorruption: a torn or bit-flipped results file is never
// served. It reads as a miss, is removed, and the recomputed run is
// persisted again for the next restart.
func TestCacheDiskCorruption(t *testing.T) {
	val := simOf(1234)
	for _, c := range diskCorruptions {
		dir := t.TempDir()
		compute := func() (*stats.Sim, error) { return val, nil }
		if _, _, err := getRun(NewCache(8, 1<<20, dir), context.Background(), "k", compute); err != nil {
			t.Fatal(err)
		}
		b := NewCache(8, 1<<20, dir)
		path := b.diskPath("k")
		corruptFile(t, path, c.mut)
		if got, ok := b.loadDisk("k"); ok {
			t.Errorf("%s: corrupt file served (%d bytes)", c.name, len(got.enc))
		}
		requireGone(t, c.name, path)

		v, src, err := getRun(b, context.Background(), "k", compute)
		if err != nil || src != SourceComputed || v != val {
			t.Fatalf("%s: after corruption: %v, %v, %v; want a recomputation", c.name, v, src, err)
		}
		v, src, err = getRun(NewCache(8, 1<<20, dir), context.Background(), "k", func() (*stats.Sim, error) {
			t.Fatalf("%s: rewritten entry not served from disk", c.name)
			return nil, nil
		})
		if err != nil || src != SourceDisk || !sameSim(v, val) {
			t.Fatalf("%s: rewritten entry: %v, %v, %v", c.name, v, src, err)
		}
	}
}

// TestTraceStoreDiskCorruption: a torn or bit-flipped trace artifact is
// rejected by the codec's checksum, reads as a miss and is removed; a
// fresh store of the recording is then served from disk again. An
// artifact of an older format version goes the same way, through a
// restarted daemon that records the benchmark again.
func TestTraceStoreDiskCorruption(t *testing.T) {
	bench, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(2_000, 1)
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(3_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Scale: 2_000, Seed: 1}.WithDefaults()

	for _, c := range diskCorruptions {
		dir := t.TempDir()
		storeTrace(t, newTraceCache(4, dir), opts, tr)
		tc := newTraceCache(4, dir)
		path := tc.diskPath("compress-" + traceScope(opts))
		corruptFile(t, path, c.mut)
		if _, ok := loadTrace(tc, opts); ok {
			t.Errorf("%s: corrupt trace artifact served", c.name)
		}
		requireGone(t, c.name, path)

		storeTrace(t, tc, opts, tr)
		back, ok := loadTrace(newTraceCache(4, dir), opts)
		if !ok || back.Len() != tr.Len() || back.TupleCount() != tr.TupleCount() {
			t.Fatalf("%s: re-stored trace not served from disk (ok=%v)", c.name, ok)
		}
	}

	// A recording in an older format (the header says version 2 or 3,
	// the checksum is sound) is dropped like a corrupt one: a restarted
	// daemon records the benchmark again, stores the current format in
	// its place, and serves what a fresh daemon serves.
	spec := JobSpec{Workload: "compress", Config: "8w-1pV", Scale: 2_000}
	_, fresh := testServer(t, Options{})
	want, _ := postJob(t, fresh.URL, spec, true)
	decodeResult(t, want)
	for _, v := range []uint16{2, 3} {
		dir := t.TempDir()
		first, ts := testServer(t, Options{CacheDir: dir})
		view, _ := postJob(t, ts.URL, JobSpec{Workload: "compress", Config: "4w-1pV", Scale: 2_000}, true)
		decodeResult(t, view)
		path := first.traces.diskPath("compress-" + traceScope(opts))
		corruptFile(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], v)
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
			return b
		})
		if _, err := trace.ReadFile(path); err == nil || strings.Contains(err.Error(), "\n") ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported format version %d", v)) {
			t.Fatalf("version-%d artifact: want a one-line unsupported-version error, got %v", v, err)
		}
		restarted, ts := testServer(t, Options{CacheDir: dir})
		got, _ := postJob(t, ts.URL, spec, true)
		decodeResult(t, got)
		if n := restarted.sched.recorded.Value(); n != 1 {
			t.Errorf("version-%d artifact: the restarted daemon made %d recordings, want 1", v, n)
		}
		if _, err := trace.ReadFile(path); err != nil {
			t.Errorf("version-%d artifact not replaced by the new recording: %v", v, err)
		}
		if !bytes.Equal(got.Result, want.Result) {
			t.Errorf("the result served over a re-recorded version-%d artifact differs from a fresh daemon's", v)
		}
	}
}

// TestTraceStoreDropsCheckpointFlag: a trace artifact whose header sets
// the retired checkpoint flag (fflags bit 1), checksum intact, is
// rejected by the codec with one line, reads as a miss and is removed.
func TestTraceStoreDropsCheckpointFlag(t *testing.T) {
	bench, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(2_000, 1)
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(3_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Scale: 2_000, Seed: 1}.WithDefaults()
	dir := t.TempDir()
	storeTrace(t, newTraceCache(4, dir), opts, tr)
	tc := newTraceCache(4, dir)
	path := tc.diskPath("compress-" + traceScope(opts))
	corruptFile(t, path, func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[6:], binary.LittleEndian.Uint16(b[6:])|1<<1)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	})
	if _, err := trace.ReadFile(path); err == nil || strings.Contains(err.Error(), "\n") ||
		!strings.Contains(err.Error(), "unsupported format flags") {
		t.Fatalf("checkpoint-flagged artifact: want a one-line unsupported-flags error, got %v", err)
	}
	if _, ok := loadTrace(tc, opts); ok {
		t.Error("checkpoint-flagged trace artifact served")
	}
	requireGone(t, "checkpoint-flag", path)
}
