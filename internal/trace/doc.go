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
// once into blocks that any number of cursors read, each block walked
// forward from its checkpoint. The bench ladder (cmd/sdvbench) measures
// it; experiments.Runner does not use it, since a walked Decoded holds
// 56 B per record where a Replayer holds none.
//
// The in-memory form holds only what a forward walk cannot derive. The
// records are cut into blocks of 4,096 (blockLen); each block holds its
// first record's PC (a checkpoint), its records' interned-tuple indexes
// at the narrowest width (1 to 4 bytes) that holds the block's largest
// index, and their taken bits. Every other PC is derived from the record
// before it (emu.Record.NextPC: a jr's target is in its tuple), so a
// Trace has no random access: the Replayer is its one reader, and it
// seeks by starting at a checkpoint. The trace also holds one halt flag
// (only the last record can halt) and one pool of distinct two-word
// operand tuples, interned through an open-addressed table in
// first-occurrence order. A tuple is a record's Vals (emu.Project): a
// memory op's effective address, the source values an arithmetic op
// names, a jr's target register. The pool is held in chunks of 4,096
// tuples (poolChunk, 64 KiB), so adding a tuple never copies it. The
// recorder stages 4,096 records and seals each block at its exact size,
// so a finished Trace holds no spare capacity, and finishing it copies
// only the last pool chunk; a recording peaks at about its finished
// size plus the interning table. Seq
// is the record index and the static instruction comes from the
// embedded program text. On disk the blocks are written as they are
// held, after the text and the tuple pool, and the only PC stored is the
// entry PC: Decode reads each block at its exact size and derives every
// checkpoint in one forward walk.
package trace
