// Package profile carries lightweight hot-path health counters for the
// cycle-level simulator, so the allocation-free steady state is measured
// rather than asserted. The pipeline reports pool traffic (heap news vs
// recycles) and journal depth through HotStats; ReadRuntime samples the
// process-wide gauges the service layer's /metrics endpoint reports.
package profile

import "runtime"

// HotStats is a snapshot of the simulator's hot-path recycling behaviour.
// In steady state the News counters stay flat (every structure comes from
// a free list) while the Recycles counters grow with simulated work.
type HotStats struct {
	UopNews      uint64 // uops allocated from the heap (pool misses)
	UopRecycles  uint64 // uops returned to the free list
	VopNews      uint64 // vector instances allocated from the heap
	VopRecycles  uint64 // vector instances returned to the free list
	JournalDepth uint64 // live undo records (bounded by the in-flight window)
}

// Add folds another snapshot's counters into h (aggregation across
// simulators). JournalDepth is point-in-time state, not a rate, so it is
// not summed: aggregates report it as zero.
func (h *HotStats) Add(o HotStats) {
	h.UopNews += o.UopNews
	h.UopRecycles += o.UopRecycles
	h.VopNews += o.VopNews
	h.VopRecycles += o.VopRecycles
	h.JournalDepth = 0
}

// Runtime is a snapshot of process-wide health gauges, read by the
// service layer's /metrics endpoint.
type Runtime struct {
	Goroutines      int
	HeapAllocBytes  uint64
	TotalAllocBytes uint64
	Mallocs         uint64
	Frees           uint64
	NumGC           uint32
}

// ReadRuntime samples the current process gauges, without forcing a GC:
// it is a monitoring probe, not a measurement barrier.
func ReadRuntime() Runtime {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return Runtime{
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  m.HeapAlloc,
		TotalAllocBytes: m.TotalAlloc,
		Mallocs:         m.Mallocs,
		Frees:           m.Frees,
		NumGC:           m.NumGC,
	}
}
