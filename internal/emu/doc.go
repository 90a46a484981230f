// Package emu is the functional emulator for the specvec ISA.
//
// It plays two roles, mirroring how execute-driven simulators such as
// SimpleScalar are structured:
//
//   - It is the architectural oracle: Step executes one instruction with
//     exact semantics and returns its full DynInst, so any timing model
//     must commit precisely the stream that the emulator produces.
//   - It defines the one timing record, Record, and its projection from a
//     DynInst (Project): what the cycle-level pipeline reads of each
//     dynamic instruction — effective addresses (stride detection,
//     store-conflict checks), scalar source values (validation checks)
//     and branch outcomes. Results and stored values are never read.
//
// Machine.Next serves Records strictly forward, as the live source of
// the timing pipeline. Re-fetching after a squash (§3.6 store-conflict
// recovery) never reaches the machine: the pipeline keeps the replay
// window itself.
package emu
