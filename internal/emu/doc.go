// Package emu is the functional emulator for the specvec ISA.
//
// It plays two roles, mirroring how execute-driven simulators such as
// SimpleScalar are structured:
//
//   - It is the architectural oracle: Step executes one instruction with
//     exact semantics, so any timing model must commit precisely the stream
//     that the emulator produces.
//   - It generates the dynamic instruction records (DynInst) that the
//     cycle-level pipeline consumes: effective addresses, branch outcomes
//     and results, which the timing model needs for scheduling, stride
//     detection and validation checks.
//
// Machine.Next serves those records strictly forward, as the live source
// of the timing pipeline. Re-fetching after a squash (§3.6 store-conflict
// recovery) never reaches the machine: the pipeline keeps the replay
// window itself.
package emu
