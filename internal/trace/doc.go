// Package trace records and replays the dynamic instruction stream that
// the timing pipeline consumes.
//
// The stream produced by functional emulation is config-independent: one
// (benchmark, scale, seed) triple yields the same emu.Record sequence
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
//   - Recorder wraps a fresh emu.Machine; Finish runs it to a target
//     record count (or its halt) and captures the records. Recording is a
//     pure functional pass: sdvsim -trace-record and experiments.Runner
//     both record first and then replay.
//   - Replayer serves a recorded Trace to the pipeline as a forward-only
//     pipeline.Source — the same emu.Records the live machine serves —
//     without a machine, a memory image, or per-instruction
//     interpretation; it allocates nothing. The pipeline keeps the replay
//     window a squash re-fetches from, so no source rewinds. Replayer is
//     the one replay source of experiments.Runner.
//   - Encode/Decode stream a Trace to and from a compact, versioned,
//     checksummed file (format in codec.go).
//
// Decoded and Cursor are a fourth, shared-walk reader: a trace decoded
// once into blocks that any number of cursors read. The bench ladder
// (cmd/sdvbench) measures it; experiments.Runner does not use it, since
// a walked Decoded holds 56 B per record where a Replayer holds none.
//
// The in-memory form is structure-of-arrays: a PC column and an
// interned-tuple index column, each stored at the narrowest width (1 to
// 4 bytes) that holds its largest value, a taken bitset (one bit per
// record), one halt flag (only the last record can halt), and one pool of
// distinct two-word operand tuples, interned through an open-addressed
// table in first-occurrence order. A tuple is a record's Vals
// (emu.Project): a memory op's effective address, the source values an
// arithmetic op names, a jr's target register. The decoder builds
// full-width columns and narrows them once; the recorder narrows as it
// goes, stageLen records at a time, re-encoding a column in place when a
// value needs more bytes, and reuses its per-record columns from one
// recording to the next. A finished Trace has one layout either way. Record writes an emu.Record straight from the
// columns: Seq is the record index and the static instruction comes from
// the embedded program text. On disk, PC and tuple-index columns
// are zigzag-varint delta encoded (loops keep both locally repetitive)
// and each record keeps a flag byte.
package trace
