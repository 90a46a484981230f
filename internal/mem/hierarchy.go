package mem

import "specvec/internal/stats"

// HierarchyConfig holds the full memory-system parameters (Table 1).
type HierarchyConfig struct {
	ICache CacheConfig
	DCache CacheConfig
	L2     CacheConfig
	L2Lat  int // total latency of an L1 miss that hits in L2
	MemLat int // total latency of an access that misses in L2
	MSHRs  int // max outstanding L1D misses
}

// DefaultHierarchy returns the Table 1 memory system: 64KB 2-way L1s (64B
// I-lines, 32B D-lines, 1-cycle hit, 6-cycle miss), 256KB 4-way L2 (6-cycle
// hit, 18-cycle miss), up to 16 outstanding misses.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		ICache: CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLat: 1},
		DCache: CacheConfig{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, HitLat: 1},
		L2:     CacheConfig{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 4, HitLat: 6},
		L2Lat:  6,
		MemLat: 18,
		MSHRs:  16,
	}
}

// Hierarchy glues the cache levels together and applies the MSHR limit.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
	sim *stats.Sim

	// Outstanding L1D miss completion cycles (MSHR occupancy model).
	outstanding []uint64
}

// NewHierarchy builds the hierarchy and wires counters into sim.
func NewHierarchy(cfg HierarchyConfig, sim *stats.Sim) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1i: NewCache(cfg.ICache),
		l1d: NewCache(cfg.DCache),
		l2:  NewCache(cfg.L2),
		sim: sim,
	}
}

// DLineAddr returns the L1D line-aligned address containing addr.
func (h *Hierarchy) DLineAddr(addr uint64) uint64 { return h.l1d.LineAddr(addr) }

// AccessInst fetches the I-cache line containing byte address addr and
// returns the fetch latency.
func (h *Hierarchy) AccessInst(addr uint64) int {
	hit, _ := h.l1i.Access(addr, false)
	if hit {
		h.sim.L1IHits++
		return h.cfg.ICache.HitLat
	}
	h.sim.L1IMisses++
	return h.levelTwo(addr, false)
}

// CanAcceptData reports whether a new data access may start at cycle given
// the MSHR limit (a miss needs a free MSHR; we conservatively require one
// free slot for any access since hit/miss is unknown until the tag check).
func (h *Hierarchy) CanAcceptData(cycle uint64) bool {
	h.retire(cycle)
	return len(h.outstanding) < h.cfg.MSHRs
}

// AccessData performs a data access at cycle and returns its total latency.
// write=true marks the line dirty and counts stores.
func (h *Hierarchy) AccessData(addr uint64, write bool, cycle uint64) int {
	hit, wb := h.l1d.Access(addr, write)
	if wb {
		h.sim.Writebacks++
	}
	if hit {
		h.sim.L1DHits++
		return h.cfg.DCache.HitLat
	}
	h.sim.L1DMisses++
	lat := h.levelTwo(addr, write)
	h.outstanding = append(h.outstanding, cycle+uint64(lat))
	return lat
}

func (h *Hierarchy) levelTwo(addr uint64, write bool) int {
	hit, wb := h.l2.Access(addr, write)
	if wb {
		h.sim.Writebacks++
	}
	if hit {
		h.sim.L2Hits++
		return h.cfg.L2Lat
	}
	h.sim.L2Misses++
	return h.cfg.MemLat
}

func (h *Hierarchy) retire(cycle uint64) {
	live := h.outstanding[:0]
	for _, done := range h.outstanding {
		if done > cycle {
			live = append(live, done)
		}
	}
	h.outstanding = live
}

// OutstandingMisses returns current MSHR occupancy (tests).
func (h *Hierarchy) OutstandingMisses(cycle uint64) int {
	h.retire(cycle)
	return len(h.outstanding)
}
