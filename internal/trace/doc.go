// Package trace records and replays the dynamic instruction stream that
// the timing pipeline consumes.
//
// The stream produced by functional emulation is config-independent: one
// (benchmark, scale, seed) triple yields the same emu.DynInst sequence
// under every processor configuration, because the workload program is
// built from those knobs alone. A sweep that simulates the same benchmark
// under many configurations therefore re-derives identical streams over
// and over. This package removes that redundancy — the record-once /
// replay-many leverage of offline dynamic analysis — and turns recorded
// streams into a workload input of their own (sdvsim -trace-record /
// -trace-replay, inspected with sdvtrace).
//
// Three faces:
//
//   - Recorder wraps a live emu.Machine and captures records. It can
//     serve the pipeline exactly like emu.Stream (bounded window, rewind
//     on squash), so a recording run is byte-identical to an unrecorded
//     one (sdvsim -trace-record). Finish then runs the machine to its
//     target so the trace covers the dynamic stream; called on a fresh
//     recorder it is a pure functional recording pass, which is how
//     experiments.Runner records.
//   - Replayer serves a recorded Trace with the same semantics, without a
//     machine, a memory image, or per-instruction interpretation; its
//     steady state allocates nothing. It is the one replay source of
//     experiments.Runner.
//   - Encode/Decode stream a Trace to and from a compact, versioned,
//     checksummed file (format in codec.go).
//
// Decoded and Cursor are a fourth, shared-walk reader: a trace decoded
// once into blocks that any number of cursors read. The bench ladder
// (cmd/sdvbench) measures it; experiments.Runner does not use it, since
// a walked Decoded holds 96 B per record against a Replayer's window.
//
// The in-memory form is structure-of-arrays: a PC column, a flag column
// (branch outcome, halt) and an interned-tuple index per record, plus one
// pool of distinct five-value operand tuples. Everything else in a
// DynInst (Seq, the static instruction, NextPC) is re-derived on
// materialization from the embedded program text, mirroring
// emu.Machine.Step. On disk, PC and tuple-index columns are
// zigzag-varint delta encoded (loops keep both locally repetitive).
//
// A trace may additionally carry Checkpoints
// (Recorder.EnableCheckpoints): compact architectural snapshots —
// registers, dirty memory pages, PC, branch-outcome history — taken
// every N records. NewReplayerAt starts a replay at a checkpoint
// boundary with original sequence numbers, which is what lets
// internal/experiments shard one benchmark's simulation across the
// worker pool (see ARCHITECTURE.md "Checkpoints & sharded sweeps" for
// the speculative-vs-architectural caveat on restored state).
package trace
