package emu

import (
	"encoding/binary"

	"specvec/internal/isa"
)

// pageBits/pageSize define the sparse page granularity of emulated memory.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, byte-addressable 64-bit memory. Unmapped bytes read
// as zero; pages are allocated on first write.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, alloc bool) *[pageSize]byte {
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	return p
}

// ByteAt returns the byte at addr (zero if unmapped).
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores one byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read64 loads the little-endian 64-bit word at addr. Accesses may straddle
// a page boundary.
func (m *Memory) Read64(addr uint64) uint64 {
	if addr&pageMask <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[addr&pageMask:])
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = m.ByteAt(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write64 stores the little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	if addr&pageMask <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr, true)[addr&pageMask:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for i, b := range buf {
		m.SetByte(addr+uint64(i), b)
	}
}

// ReadFloat loads the IEEE-754 double at addr.
func (m *Memory) ReadFloat(addr uint64) float64 {
	return isa.FloatFromBits(m.Read64(addr))
}

// WriteBytes copies data into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.page(addr, true)
		off := addr & pageMask
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.ByteAt(addr + uint64(i))
	}
	return out
}

// PageCount returns the number of mapped pages (tests use this to check
// sparseness).
func (m *Memory) PageCount() int { return len(m.pages) }
