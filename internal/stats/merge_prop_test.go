package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// randomSim fills every Sim field reflectively from rng — uint64
// counters get arbitrary values, histograms get arbitrary bucket counts
// plus overflow — so a counter added to Sim later is automatically part
// of the property without this test changing.
func randomSim(t *testing.T, rng *rand.Rand) *Sim {
	t.Helper()
	s := New()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(rng.Int63n(1 << 40)))
		case reflect.Pointer:
			h := f.Interface().(*Histogram)
			for j := range h.Buckets {
				h.Buckets[j] = uint64(rng.Int63n(1 << 30))
			}
			h.Overflow = uint64(rng.Int63n(1 << 30))
		default:
			t.Fatalf("Sim field %s has kind %s; teach randomSim about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

// mergeAll folds sims into a fresh Sim in the given order, cloning each
// input so the fold never aliases or mutates them.
func mergeAll(sims []*Sim, order []int) *Sim {
	out := New()
	for _, i := range order {
		out.Merge(sims[i].Clone())
	}
	return out
}

func marshal(t *testing.T, s *Sim) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeOrderIndependent is the contract sharded runs rest on:
// merging per-shard Sims must be commutative and associative, so the
// figures a sweep reports cannot depend on which interval finished
// first. The property is checked at the serialized-bytes level — the
// same representation the result cache persists.
func TestMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		sims := make([]*Sim, n)
		for i := range sims {
			sims[i] = randomSim(t, rng)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		want := marshal(t, mergeAll(sims, order))
		for shuffle := 0; shuffle < 5; shuffle++ {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			if got := marshal(t, mergeAll(sims, order)); got != want {
				t.Fatalf("trial %d: merge order %v changes the result:\nwant %s\ngot  %s",
					trial, order, want, got)
			}
		}
		// Associativity: left fold vs right-grouped pairwise fold.
		right := sims[n-1].Clone()
		for i := n - 2; i >= 0; i-- {
			next := sims[i].Clone()
			next.Merge(right)
			right = next
		}
		acc := New()
		acc.Merge(right)
		if got := marshal(t, acc); got != want {
			t.Fatalf("trial %d: right-grouped merge diverges:\nwant %s\ngot  %s", trial, want, got)
		}
	}
}

// TestMergeDoesNotMutateOther pins that Merge only writes the receiver:
// the executor merges shard results it may also retain (requeue
// bookkeeping), so the argument must come back untouched.
func TestMergeDoesNotMutateOther(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randomSim(t, rng), randomSim(t, rng)
	before := marshal(t, b)
	a.Merge(b)
	if after := marshal(t, b); after != before {
		t.Fatalf("Merge mutated its argument:\nbefore %s\nafter  %s", before, after)
	}
}
