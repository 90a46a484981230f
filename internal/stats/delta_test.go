package stats

import (
	"reflect"
	"testing"
)

// TestHistogramCountContract pins the documented out-of-range rule:
// every index outside [0, len) — negative ones included — reads the
// shared overflow bucket, mirroring where Add routes such indexes.
func TestHistogramCountContract(t *testing.T) {
	h := NewHistogram(3)
	h.Add(0)
	h.AddN(2, 5)
	h.Add(-1) // overflow
	h.Add(3)  // overflow
	h.Add(7)  // overflow

	if got := h.Count(0); got != 1 {
		t.Errorf("Count(0) = %d, want 1", got)
	}
	if got := h.Count(2); got != 5 {
		t.Errorf("Count(2) = %d, want 5", got)
	}
	for _, i := range []int{-1, -100, 3, 4, 1 << 20} {
		if got := h.Count(i); got != 3 {
			t.Errorf("Count(%d) = %d, want the overflow bucket (3)", i, got)
		}
	}
	if got := h.Total(); got != 9 {
		t.Errorf("Total() = %d, want 9", got)
	}
	if got := h.Fraction(-1); got != 3.0/9.0 {
		t.Errorf("Fraction(-1) = %v, want 3/9", got)
	}
}

// TestHistogramMergeMismatch pins Merge's behaviour for mismatched
// bucket counts: counts beyond the receiver's range spill into its
// overflow, and a shorter source leaves the extra buckets untouched —
// nothing is dropped in either direction.
func TestHistogramMergeMismatch(t *testing.T) {
	short := NewHistogram(2)
	short.Add(0)
	short.Add(1)
	short.Add(5) // overflow

	long := NewHistogram(4)
	long.AddN(0, 10)
	long.AddN(2, 20)
	long.AddN(3, 30)
	long.AddN(-1, 40)

	sum := short.Clone()
	sum.Merge(long)
	if want := []uint64{11, 1}; !reflect.DeepEqual(sum.Buckets, want) {
		t.Errorf("short+long buckets = %v, want %v", sum.Buckets, want)
	}
	// long's buckets 2 and 3 spill into overflow alongside both overflows.
	if want := uint64(1 + 20 + 30 + 40); sum.Overflow != want {
		t.Errorf("short+long overflow = %d, want %d", sum.Overflow, want)
	}
	if sum.Total() != short.Total()+long.Total() {
		t.Errorf("merge dropped counts: %d != %d", sum.Total(), short.Total()+long.Total())
	}

	sum2 := long.Clone()
	sum2.Merge(short)
	if want := []uint64{11, 1, 20, 30}; !reflect.DeepEqual(sum2.Buckets, want) {
		t.Errorf("long+short buckets = %v, want %v", sum2.Buckets, want)
	}
	if sum2.Total() != short.Total()+long.Total() {
		t.Errorf("merge dropped counts: %d != %d", sum2.Total(), short.Total()+long.Total())
	}
}

// fillSim sets every uint64 field of a Sim to a distinct value and puts
// distinct counts into every histogram, reflectively, so the test keeps
// covering fields added later.
func fillSim(t *testing.T, s *Sim, base uint64) {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(base + uint64(i))
		case reflect.Pointer:
			h, ok := f.Interface().(*Histogram)
			if !ok {
				t.Fatalf("Sim field %s is a pointer but not a *Histogram", v.Type().Field(i).Name)
			}
			for j := range h.Buckets {
				h.Buckets[j] = base + uint64(i*10+j)
			}
			h.Overflow = base + uint64(i)
		default:
			t.Fatalf("Sim field %s has kind %s; Clone/Merge and this test must learn it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestSimFieldCoverage drives Clone and Merge over a Sim whose every
// field is populated: every counter and histogram bucket of the merge
// must be the sum of its operands, and Clone must be deep (mutating the
// clone's histograms leaves the original alone).
func TestSimFieldCoverage(t *testing.T) {
	a, b := New(), New()
	fillSim(t, a, 1000)
	fillSim(t, b, 55)

	orig := a.Clone()
	if !reflect.DeepEqual(orig, a) {
		t.Fatal("clone differs from original")
	}
	orig.StrideHist.Add(0)
	if reflect.DeepEqual(orig.StrideHist, a.StrideHist) {
		t.Fatal("clone shares histogram storage with the original")
	}

	sum := a.Clone()
	sum.Merge(b)
	sv, av, bv := reflect.ValueOf(sum).Elem(), reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		switch f := sv.Field(i); f.Kind() {
		case reflect.Uint64:
			if want := av.Field(i).Uint() + bv.Field(i).Uint(); f.Uint() != want {
				t.Errorf("merged %s = %d, want %d", name, f.Uint(), want)
			}
		case reflect.Pointer:
			h, ha, hb := f.Interface().(*Histogram), av.Field(i).Interface().(*Histogram), bv.Field(i).Interface().(*Histogram)
			for j := range h.Buckets {
				if want := ha.Buckets[j] + hb.Buckets[j]; h.Buckets[j] != want {
					t.Errorf("merged %s[%d] = %d, want %d", name, j, h.Buckets[j], want)
				}
			}
			if want := ha.Overflow + hb.Overflow; h.Overflow != want {
				t.Errorf("merged %s overflow = %d, want %d", name, h.Overflow, want)
			}
		}
	}
}
