package core

// newSets builds a set-associative table's storage: n sets of ways
// entries, carved from one backing array.
func newSets[E any](n, ways int) [][]E {
	backing := make([]E, n*ways)
	sets := make([][]E, n)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return sets
}

// growSets extends an unbounded table (one set of one way per PC) so that
// pc has its set, at least doubling the set count. Only the outer slice
// moves: the journal holds pointers to entries, so the new sets are carved
// from a fresh backing array and existing entries stay where they are.
func growSets[E any](sets [][]E, pc uint64) [][]E {
	n := max(int(pc)+1, 2*len(sets))
	return append(sets, newSets[E](n-len(sets), 1)...)
}
