package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	HitLat    int // cycles from access to data for a hit
}

// Validate checks geometric consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("mem: non-positive cache geometry %+v", c)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: sets %d not a power of two (%+v)", sets, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-access stamp
}

// Cache is one set-associative, write-back, LRU cache level. The tag
// array is one contiguous slice (set i occupies lines[i*assoc:(i+1)*assoc])
// so constructing a cache is two allocations, not one per set — the
// experiment harness builds hundreds of simulators per sweep.
type Cache struct {
	lines    []line
	nsets    uint64
	assoc    int
	lineBits uint
	stamp    uint64

	// Counters owned by the cache; the hierarchy mirrors them into
	// stats.Sim fields per level.
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// NewCache builds a cache level; it panics on invalid geometry (configs are
// static and validated in internal/config tests).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	bits := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		bits++
	}
	return &Cache{
		lines:    make([]line, cfg.Sets()*cfg.Assoc),
		nsets:    uint64(cfg.Sets()),
		assoc:    cfg.Assoc,
		lineBits: bits,
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

// Lookup probes for addr without modifying state.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access touches addr; write marks the line dirty. It returns hit and, for
// misses that evict a dirty victim, writeback=true.
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.stamp++
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			c.Hits++
			return true, false
		}
	}
	c.Misses++
	// Fill: choose invalid way or LRU victim.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	writeback = set[victim].valid && set[victim].dirty
	if writeback {
		c.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return false, writeback
}

// InvalidateAll clears the cache (context-switch style reset; used by
// tests).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

func (c *Cache) locate(addr uint64) ([]line, uint64) {
	lineAddr := addr >> c.lineBits
	idx := lineAddr % c.nsets
	return c.lines[idx*uint64(c.assoc) : (idx+1)*uint64(c.assoc)], lineAddr / c.nsets
}
