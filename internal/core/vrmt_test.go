package core

import "testing"

func TestVRMTInsertLookup(t *testing.T) {
	v := NewVRMT(64, 4)
	j := NewJournal()
	e := Entry{PC: 100, VReg: 5, Src1: Operand{Kind: OperandVector, VReg: 2}}
	v.Insert(0, e, j)
	got, ok := v.Lookup(100)
	if !ok || got.VReg != 5 || got.Src1.VReg != 2 {
		t.Errorf("lookup = %+v, %v", got, ok)
	}
	if _, ok := v.Lookup(101); ok {
		t.Error("phantom entry")
	}
}

func TestVRMTAdvanceAndRewind(t *testing.T) {
	v := NewVRMT(64, 4)
	j := NewJournal()
	e := v.Insert(0, Entry{PC: 100, VReg: 1}, j)
	v.AdvanceEntry(1, e, j)
	v.AdvanceEntry(2, e, j)
	if e, _ := v.Lookup(100); e.Offset != 2 {
		t.Errorf("offset = %d, want 2", e.Offset)
	}
	j.RewindTo(2)
	if e, _ := v.Lookup(100); e.Offset != 1 {
		t.Errorf("offset after rewind = %d, want 1", e.Offset)
	}
	j.RewindTo(0)
	if _, ok := v.Lookup(100); ok {
		t.Error("entry survived rewind past insert")
	}
}

func TestVRMTInvalidate(t *testing.T) {
	v := NewVRMT(64, 4)
	j := NewJournal()
	v.Insert(0, Entry{PC: 100, VReg: 1}, j)
	e, _ := v.Lookup(100)
	v.InvalidateEntry(1, e, j)
	if _, ok := v.Lookup(100); ok {
		t.Error("entry survived invalidate")
	}
	j.RewindTo(1)
	if _, ok := v.Lookup(100); !ok {
		t.Error("invalidate not undone by rewind")
	}
}

func TestVRMTInvalidateByVReg(t *testing.T) {
	v := NewVRMT(64, 4)
	j := NewJournal()
	v.Insert(0, Entry{PC: 100, VReg: 7}, j)
	v.Insert(1, Entry{PC: 200, VReg: 9}, j)
	pc, found := v.InvalidateByVReg(2, 7, j)
	if !found || pc != 100 {
		t.Errorf("InvalidateByVReg = %d, %v", pc, found)
	}
	if _, ok := v.Lookup(100); ok {
		t.Error("entry survived")
	}
	if _, ok := v.Lookup(200); !ok {
		t.Error("wrong entry removed")
	}
	if _, found := v.InvalidateByVReg(3, 42, j); found {
		t.Error("found non-existent vreg")
	}
}

func TestVRMTReinsertSamePC(t *testing.T) {
	v := NewVRMT(64, 4)
	j := NewJournal()
	v.Insert(0, Entry{PC: 100, VReg: 1, Offset: 3}, j)
	// Roll-over to a fresh register resets the offset.
	v.Insert(1, Entry{PC: 100, VReg: 2}, j)
	e, _ := v.Lookup(100)
	if e.VReg != 2 || e.Offset != 0 {
		t.Errorf("after reinsert: %+v", e)
	}
}

func TestVRMTEviction(t *testing.T) {
	v := NewVRMT(1, 2) // one set, two ways
	j := NewJournal()
	v.Insert(0, Entry{PC: 1, VReg: 1}, j)
	v.Insert(1, Entry{PC: 2, VReg: 2}, j)
	v.Lookup(1) // make PC 2 the LRU
	if e := v.Insert(2, Entry{PC: 3, VReg: 3}, j); e.PC != 3 || e.VReg != 3 {
		t.Errorf("Insert returned %+v, want the live PC 3 entry", e)
	}
	if _, ok := v.Lookup(2); ok {
		t.Error("victim still present")
	}
	if _, ok := v.Lookup(1); !ok {
		t.Error("MRU entry evicted")
	}
}

func TestVRMTUnbounded(t *testing.T) {
	v := NewVRMT(0, 0)
	j := NewJournal()
	// Thousands of distinct PCs, none evicted. Growing the table never
	// moves an entry: the journal holds pointers to them.
	first := v.Insert(0, Entry{PC: 0, VReg: 0}, j)
	for pc := uint64(1); pc < 3000; pc++ {
		v.Insert(pc, Entry{PC: pc, VReg: int(pc)}, j)
	}
	for pc := uint64(0); pc < 3000; pc++ {
		if e, ok := v.Lookup(pc); !ok || e.VReg != int(pc) {
			t.Fatalf("entry %d missing", pc)
		}
	}
	if e, _ := v.Lookup(0); e != first {
		t.Error("growing the table moved an entry")
	}
}

func TestOperandMatches(t *testing.T) {
	cases := []struct {
		a, b Operand
		want bool
	}{
		{Operand{Kind: OperandVector, VReg: 3}, Operand{Kind: OperandVector, VReg: 3}, true},
		{Operand{Kind: OperandVector, VReg: 3}, Operand{Kind: OperandVector, VReg: 4}, false},
		{Operand{Kind: OperandScalar, Value: 9}, Operand{Kind: OperandScalar, Value: 9}, true},
		{Operand{Kind: OperandScalar, Value: 9}, Operand{Kind: OperandScalar, Value: 8}, false},
		{Operand{Kind: OperandImm, Value: 1}, Operand{Kind: OperandImm, Value: 1}, true},
		{Operand{Kind: OperandScalar, Value: 9}, Operand{Kind: OperandVector, VReg: 9}, false},
		{Operand{Kind: OperandNone}, Operand{Kind: OperandNone}, true},
	}
	for i, c := range cases {
		if got := c.a.Matches(c.b); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestStorageAuditMatchesPaper(t *testing.T) {
	s := StorageBytes(128, 4, 64, 4, 512, 4)
	if s.VRFBytes != 4096 {
		t.Errorf("VRF = %d, want 4096", s.VRFBytes)
	}
	if s.VRMTBytes != 4608 {
		t.Errorf("VRMT = %d, want 4608", s.VRMTBytes)
	}
	if s.TLBytes != 49152 {
		t.Errorf("TL = %d, want 49152", s.TLBytes)
	}
	if s.Total() != 57856 { // the paper rounds to "56 Kbytes"
		t.Errorf("total = %d, want 57856", s.Total())
	}
	if s.Total()/1024 != 56 {
		t.Errorf("total KB = %d, want 56", s.Total()/1024)
	}
}
