// Package pipeline is the cycle-level out-of-order superscalar model —
// the SimpleScalar-like substrate of the paper's evaluation — extended at
// decode, issue and commit with the speculative dynamic vectorization
// engine from internal/core.
//
// The model is trace-driven: the functional emulator supplies the
// committed-path dynamic instruction stream as emu.Records (effective
// addresses, branch outcomes and scalar source values), and this package
// replays it against real structural, data and memory-system
// constraints. On a branch
// misprediction fetch stalls until the branch resolves plus a redirect
// penalty; wrong-path instructions are not simulated (ARCHITECTURE.md,
// "Fetch", says why this preserves the paper's behaviour). Vector state
// survives both mispredictions (control independence, §3.5) and
// store-conflict squashes (§3.6), which rewind decode-side SDV state
// through the core.Journal and re-fetch from the simulator's replay
// window. That window is the only one: a Source (the live emu.Machine,
// a trace.Replayer) only steps forward.
//
// # Hot-path discipline
//
// The per-cycle loop is allocation-free in steady state, which is what
// makes full-scale figure sweeps tractable:
//
//   - uops and vector instances come from free-list pools (uopPool,
//     vopPool) and are recycled at commit, squash or drain. Cross-uop
//     references are generation-checked (uopRef), so a recycled producer
//     reads as completed instead of dangling.
//   - The ROB, LSQ and fetch buffer are fixed-capacity rings; the LSQ
//     addresses entries by absolute position, so the store-scan of the
//     load issue rule walks exactly the older entries.
//   - The issue queue keeps a ready bitset scoreboard: producers wake
//     their waiters when they issue, and the scalar issue scan visits only
//     positions whose register sources have known completion times.
//   - Decode-side speculative state (TL, VRMT, register allocations, V/S
//     rename entries, churn levels, statistics) is journalled through
//     typed undo records in preallocated stacks — no closures.
//   - Fetch takes records from a fixed ring of SourceWindow(cfg) 56 B
//     emu.Records, which the source writes in place; a squash moves the
//     ring's position back.
//   - Wide-bus merge windows live in a small ordered table with pooled
//     scratch instead of a per-access map.
//
// Simulator.HotStats reports the pool and journal counters
// (internal/profile); pool_test.go pins the steady-state
// allocations-per-cycle at ~0. ARCHITECTURE.md walks the five stages in
// detail.
package pipeline
