package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
)

// This file gives Sim a stable JSON round-trip so simulation results are
// servable (internal/server, sdvexp -server): field names and order follow
// the struct declaration, uint64 counters encode as JSON numbers and
// histograms as {"Buckets":[...],"Overflow":n}. Like Clone/Merge
// (delta.go) the walk is reflective, so a counter added later is encoded
// automatically and an unsupported field kind panics instead of being
// silently dropped. Decoding is strict about unknown fields — a client and
// a daemon built from different module versions fail loudly instead of
// silently zeroing counters — but tolerates missing ones (an older
// producer simply has fewer counters; they stay zero).

// MarshalJSON encodes s as a single JSON object, one member per Sim field
// in declaration order.
func (s *Sim) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:", t.Field(i).Name)
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			fmt.Fprintf(&buf, "%d", f.Uint())
		case reflect.Pointer:
			b, err := json.Marshal(histogramField(t.Field(i).Name, f))
			if err != nil {
				return nil, err
			}
			buf.Write(b)
		default:
			panic(fmt.Sprintf("stats: Sim field %s has kind %s; teach MarshalJSON about it",
				t.Field(i).Name, f.Kind()))
		}
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes an object produced by MarshalJSON. Unknown members
// are an error; absent fields are left at their zero value.
func (s *Sim) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("stats: decoding Sim: %w", err)
	}
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		name := t.Field(i).Name
		msg, ok := raw[name]
		if !ok {
			continue
		}
		delete(raw, name)
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			var n uint64
			if err := json.Unmarshal(msg, &n); err != nil {
				return fmt.Errorf("stats: Sim field %s: %w", name, err)
			}
			f.SetUint(n)
		case reflect.Pointer:
			histogramField(name, f) // keep the *Histogram-only invariant loud
			var h *Histogram
			if err := json.Unmarshal(msg, &h); err != nil {
				return fmt.Errorf("stats: Sim field %s: %w", name, err)
			}
			f.Set(reflect.ValueOf(h))
		default:
			panic(fmt.Sprintf("stats: Sim field %s has kind %s; teach UnmarshalJSON about it",
				name, f.Kind()))
		}
	}
	if len(raw) > 0 {
		return fmt.Errorf("stats: unknown Sim field(s) in JSON: %v", SortedKeys(raw))
	}
	return nil
}
