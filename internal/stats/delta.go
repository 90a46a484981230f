package stats

import (
	"fmt"
	"reflect"
)

// This file gives Sim whole-value arithmetic: Clone deep-copies a result
// and Merge sums results (the bench ladder totals its runs with it). Both
// walk Sim's fields reflectively so a counter added later is covered
// automatically — an unsupported field kind panics instead of being
// silently dropped, and TestSimFieldCoverage exercises every field to
// keep that loud.

// Clone returns a deep copy of s, histograms included.
func (s *Sim) Clone() *Sim {
	out := *s
	v := reflect.ValueOf(&out).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Pointer {
			f.Set(reflect.ValueOf(histogramField(v.Type().Field(i).Name, f).Clone()))
		}
	}
	return &out
}

// Merge adds every counter and histogram of other into s. Ratio metrics
// (IPC, rates, fractions) are then computed from the merged sums, never
// averaged.
func (s *Sim) Merge(other *Sim) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(other).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f, g := sv.Field(i), ov.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + g.Uint())
		case reflect.Pointer:
			name := sv.Type().Field(i).Name
			histogramField(name, f).Merge(histogramField(name, g))
		default:
			panic(fmt.Sprintf("stats: Sim field %s has kind %s; teach Clone/Merge about it",
				sv.Type().Field(i).Name, f.Kind()))
		}
	}
}

func histogramField(name string, v reflect.Value) *Histogram {
	h, ok := v.Interface().(*Histogram)
	if !ok {
		panic(fmt.Sprintf("stats: Sim field %s is a pointer but not a *Histogram", name))
	}
	return h
}
