// Package workload generates the synthetic Spec95-like benchmark programs
// used by the evaluation, substituting for the proprietary SpecInt95 /
// SpecFP95 suites (EXPERIMENTS.md, "Paper vs. measured — caveats", says
// what that substitution preserves).
//
// Each generator emits a real program for the specvec ISA whose dynamic
// behaviour matches the published characteristics that drive the paper's
// mechanism: the per-benchmark stride mix of Figure 1, branch
// predictability, instruction mix, and loop structure. The suite is the
// eight SpecInt95 programs and the four SpecFP95 programs the paper uses
// (swim, applu, turb3d, fpppp). Build(scale, seed) returns a program of
// approximately scale dynamic instructions with seed-determined data, so
// experiments are reproducible bit-for-bit at any size.
package workload
