// Package config defines processor configurations. FourWay and EightWay
// reproduce Table 1 of the paper; Mode and Matrix enumerate the
// 18-configuration sweep of Figures 11 and 12 (issue width × L1 data
// ports × {scalar bus, wide bus, wide bus + dynamic vectorization}).
//
// Configuration names follow the paper's shorthand: "4w-1pV" is a 4-way
// core with one L1D port and the full SDV proposal; "8w-2pIM" is an 8-way
// core with two ports and a wide (line-sized) bus but no vectorization.
// Unbounded turns the TL, VRMT and vector register file into the infinite
// structures of the Figure 3 limit study: the TL and VRMT become one set of
// one way per PC, grown as PCs appear, and the register file grows on
// demand.
package config
