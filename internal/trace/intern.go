package trace

import "math/bits"

// interner numbers distinct operand tuples in first-occurrence order.
// Its table is open-addressed with linear probing: a slot holds a pool
// index + 1 (0 marks an empty slot), so a tuple's words are stored only
// once, in the pool, and the table costs 4 B per slot. The load factor
// stays at or below one half, and the table doubles to keep it there;
// the pool grows a chunk at a time and is never copied.
type interner struct {
	slots []uint32
	used  int
}

// Hash constants (wyhash's primes): any odd 64-bit values with mixed
// bits would do, since tuples are not adversarial.
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
	hashK3 = 0x589965cc75374cc3
)

// mix folds the 128-bit product of a and b to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func hashTuple(k *[tupleWords]uint64) uint64 {
	return mix(mix(k[0]^hashK0, k[1]^hashK1)^hashK2, hashK3)
}

// intern returns k's index in p, adding k to p if it is new.
func (in *interner) intern(p *pool, k *[tupleWords]uint64) uint32 {
	if 2*(in.used+1) > len(in.slots) {
		in.grow(p)
	}
	mask := uint64(len(in.slots) - 1)
	for i := hashTuple(k) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			idx := uint32(p.len())
			p.add(k)
			in.slots[i] = idx + 1
			in.used++
			return idx
		}
		if *p.at(s - 1) == *k {
			return s - 1
		}
	}
}

// grow doubles the table (starting at 1024 slots) and re-inserts every
// tuple of p.
func (in *interner) grow(p *pool) {
	in.slots = make([]uint32, max(1024, 2*len(in.slots)))
	mask := uint64(len(in.slots) - 1)
	for j := range uint32(p.len()) {
		i := hashTuple(p.at(j)) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = j + 1
	}
}
