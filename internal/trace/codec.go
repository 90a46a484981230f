package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"specvec/internal/emu"
	"specvec/internal/isa"
)

// On-disk format (version 3), little-endian, streamed:
//
//	magic   [4]byte "SDVT"
//	version uint16
//	fflags  uint16            bit 0: truncated (no other bit is defined)
//	name    uvarint len + bytes
//	counts  uvarint ×3        static instructions, records, tuples
//	text    per instruction: op, rd, rs1, rs2 (bytes) + zigzag-varint imm
//	pcs     zigzag-varint delta from the previous record's PC
//	flags   one byte per record: bit 0 taken, bit 1 halt (last record only)
//	tupleIdx zigzag-varint delta from the previous record's index
//	tuples  uvarint per value, two per tuple (an emu.Record's Vals)
//	crc32   uint32 (IEEE) over every preceding byte, header included
//
// PCs and tuple indexes are delta-encoded because both are locally
// repetitive (loops revisit nearby PCs and recent operand tuples), which
// keeps most deltas in one or two varint bytes. Every PC after the first
// is its predecessor's successor (emu.Record.NextPC): Encode writes the
// PCs a forward walk derives, the in-memory form keeps only each block's
// first, and Decode rejects a file whose PCs break the rule. Versions 1 and 2 interned
// five values per record (EffAddr, StoreVal, Result and both source
// values); Decode rejects them, so such a trace is recorded again.

var magic = [4]byte{'S', 'D', 'V', 'T'}

// Version is the on-disk format version, the only one Decode accepts.
const Version = 3

const (
	fmtTruncated uint16 = 1 << 0

	// maxCount bounds decoded element counts so a corrupt header cannot
	// drive allocation before the checksum is verified.
	maxCount = 1 << 31
)

// cwriter counts a CRC over everything written.
type cwriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (c *cwriter) Write(p []byte) (int, error) {
	c.crc.Write(p)
	return c.w.Write(p)
}

func (c *cwriter) byte(b byte) error {
	c.crc.Write([]byte{b})
	return c.w.WriteByte(b)
}

func (c *cwriter) uvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := c.Write(buf[:n])
	return err
}

func (c *cwriter) varint(v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := c.Write(buf[:n])
	return err
}

// delta writes v as a zigzag-varint delta from *prev and makes v the
// new *prev.
func (c *cwriter) delta(prev *int64, v uint32) error {
	err := c.varint(int64(v) - *prev)
	*prev = int64(v)
	return err
}

// Encode streams the trace to w in the versioned on-disk format.
func (t *Trace) Encode(w io.Writer) error {
	c := &cwriter{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	if _, err := c.Write(magic[:]); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], Version)
	var ff uint16
	if t.truncated {
		ff |= fmtTruncated
	}
	binary.LittleEndian.PutUint16(hdr[2:], ff)
	if _, err := c.Write(hdr[:]); err != nil {
		return err
	}
	if err := c.uvarint(uint64(len(t.name))); err != nil {
		return err
	}
	if _, err := c.Write([]byte(t.name)); err != nil {
		return err
	}
	for _, n := range []int{len(t.insts), t.n, t.TupleCount()} {
		if err := c.uvarint(uint64(n)); err != nil {
			return err
		}
	}
	for _, in := range t.insts {
		if _, err := c.Write([]byte{byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)}); err != nil {
			return err
		}
		if err := c.varint(in.Imm); err != nil {
			return err
		}
	}
	// The PC column is the forward walk's: every PC but each block's
	// first is derived, exactly as a replay derives it.
	var rec emu.Record
	prev := int64(0)
	for r := NewReplayer(t); r.Next(&rec); {
		if err := c.delta(&prev, uint32(rec.PC)); err != nil {
			return err
		}
	}
	var chunk [blockLen]byte
	for i := range t.blocks {
		b := &t.blocks[i]
		n := b.len()
		for j := range n {
			chunk[j] = 0
			if b.takenAt(j) {
				chunk[j] = flagTaken
			}
		}
		if i == len(t.blocks)-1 && t.halted {
			chunk[n-1] |= flagHalt
		}
		if _, err := c.Write(chunk[:n]); err != nil {
			return err
		}
	}
	prev = 0
	for i := range t.blocks {
		b := &t.blocks[i]
		for j := range b.len() {
			if err := c.delta(&prev, b.at(j)); err != nil {
				return err
			}
		}
	}
	for _, v := range t.tuples {
		if err := c.uvarint(v); err != nil {
			return err
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], c.crc.Sum32())
	if _, err := c.w.Write(sum[:]); err != nil { // the checksum is not part of itself
		return err
	}
	return c.w.Flush()
}

// creader counts a CRC over everything read.
type creader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (c *creader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.crc.Write([]byte{b})
	}
	return b, err
}

func (c *creader) full(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.crc.Write(p)
	return nil
}

func (c *creader) uvarint() (uint64, error) {
	return binary.ReadUvarint(c)
}

func (c *creader) varint() (int64, error) {
	return binary.ReadVarint(c)
}

// clampCap bounds an initial slice capacity; decode appends beyond it,
// so a corrupt count cannot drive a huge allocation before the data (and
// finally the checksum) is seen.
func clampCap(n int) int { return min(n, 1<<20) }

// deltas reads n zigzag-varint deltas (the first from zero) and passes
// each running value to each with its record number; what names the
// column in errors.
func (c *creader) deltas(n int, what string, each func(i int, v uint32) error) error {
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, err := c.varint()
		if err != nil {
			return fmt.Errorf("trace: reading %s column: %w", what, err)
		}
		prev += d
		if prev < 0 || prev > math.MaxUint32 {
			return fmt.Errorf("trace: record %d %s %d out of range", i, what, prev)
		}
		if err := each(i, uint32(prev)); err != nil {
			return err
		}
	}
	return nil
}

func (c *creader) count(what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxCount {
		return 0, fmt.Errorf("trace: implausible %s count %d", what, v)
	}
	return int(v), nil
}

// Decode reads a trace in the on-disk format, verifying the version and
// the trailing checksum and validating internal consistency.
func Decode(r io.Reader) (*Trace, error) {
	c := &creader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	var hdr [8]byte
	if err := c.full(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", hdr[:4])
	}
	v := binary.LittleEndian.Uint16(hdr[4:])
	if v != Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads version %d; record the trace again)", v, Version)
	}
	ff := binary.LittleEndian.Uint16(hdr[6:])
	if ff&^fmtTruncated != 0 {
		return nil, fmt.Errorf("trace: unsupported format flags %#x (only %#x, truncated, is defined)", ff, fmtTruncated)
	}

	nameLen, err := c.count("name")
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if err := c.full(name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	nInsts, err := c.count("instruction")
	if err != nil {
		return nil, err
	}
	nRecs, err := c.count("record")
	if err != nil {
		return nil, err
	}
	nTuples, err := c.count("tuple")
	if err != nil {
		return nil, err
	}

	// Initial capacities are clamped so a corrupt count cannot drive a
	// huge allocation before the data (and finally the checksum) is seen.
	t := &Trace{
		name:      string(name),
		truncated: ff&fmtTruncated != 0,
		insts:     make([]isa.Inst, 0, clampCap(nInsts)),
	}
	var quad [4]byte
	for i := 0; i < nInsts; i++ {
		if err := c.full(quad[:]); err != nil {
			return nil, fmt.Errorf("trace: reading text: %w", err)
		}
		imm, err := c.varint()
		if err != nil {
			return nil, fmt.Errorf("trace: reading text: %w", err)
		}
		t.insts = append(t.insts, isa.Inst{
			Op: isa.Op(quad[0]), Rd: isa.Reg(quad[1]), Rs1: isa.Reg(quad[2]), Rs2: isa.Reg(quad[3]),
			Imm: imm,
		})
	}
	// The stored PCs are held until the tuples are read: a jr's successor
	// is in its tuple, so only then can each be checked against the PC
	// the forward walk derives.
	pcs := make([]uint32, 0, clampCap(nRecs))
	if err := c.deltas(nRecs, "PC", func(_ int, pc uint32) error {
		pcs = append(pcs, pc)
		return nil
	}); err != nil {
		return nil, err
	}
	var cols columns
	taken := make([]uint64, 0, clampCap((nRecs+63)/64))
	var chunk [blockLen]byte
	for lo := 0; lo < nRecs; lo += len(chunk) {
		n := min(nRecs-lo, len(chunk))
		if err := c.full(chunk[:n]); err != nil {
			return nil, fmt.Errorf("trace: reading flags: %w", err)
		}
		for j, f := range chunk[:n] {
			// The in-memory form holds a taken bit per record and one halt,
			// which only the last record can carry.
			i := lo + j
			if f&^(flagTaken|flagHalt) != 0 {
				return nil, fmt.Errorf("trace: record %d has flags %#x (only %#x, taken, and %#x, halt, are defined)",
					i, f, flagTaken, flagHalt)
			}
			if f&flagHalt != 0 && i != nRecs-1 {
				return nil, fmt.Errorf("trace: record %d of %d halts before the last record", i, nRecs)
			}
			taken = appendBit(taken, i, f&flagTaken != 0)
			cols.halted = f&flagHalt != 0
		}
	}
	if err := c.deltas(nRecs, "tuple index", func(i int, idx uint32) error {
		if idx >= uint32(nTuples) {
			return fmt.Errorf("trace: record %d references tuple %d of %d", i, idx, nTuples)
		}
		cols.add(pcs[i], taken[i/64]&(1<<(i%64)) != 0, idx)
		return nil
	}); err != nil {
		return nil, err
	}
	cols.tuples = make([]uint64, 0, clampCap(nTuples*tupleWords))
	for i := 0; i < nTuples*tupleWords; i++ {
		v, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: reading tuples: %w", err)
		}
		cols.tuples = append(cols.tuples, v)
	}
	want := c.crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(c.r, sum[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch (file %#x, computed %#x)", got, want)
	}
	cols.build(t)
	if err := t.checkPCs(pcs); err != nil {
		return nil, err
	}
	return t, nil
}

// checkPCs walks t forward and requires every stored PC after the first
// to be the successor of the record before it, as the emulator steps: t
// keeps only each block's first PC, so a file whose PCs do not follow
// would otherwise replay a stream other than the one it stores. PCs need
// no bounds check: any PC outside the text materializes as a halt,
// exactly as the emulator executes it (a register-indirect jump may
// legitimately land past the text end).
func (t *Trace) checkPCs(pcs []uint32) error {
	var d emu.Record
	next := uint64(0)
	for i, r := 0, NewReplayer(t); r.Next(&d); i++ {
		if i > 0 && uint64(pcs[i]) != next {
			return fmt.Errorf("trace: record %d has PC %d, but the successor of record %d (%v at PC %d) is %d",
				i, pcs[i], i-1, t.inst(uint64(pcs[i-1])).Op, pcs[i-1], next)
		}
		next = d.NextPC()
	}
	return nil
}

// EncodeBytes renders the trace in the versioned on-disk format and
// returns the raw bytes (see Encode for the layout).
func (t *Trace) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(t.SizeBytes() / 2)
	if err := t.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes decodes a trace from its encoded form, verifying the
// embedded checksum like Decode.
func DecodeBytes(b []byte) (*Trace, error) {
	return Decode(bytes.NewReader(b))
}

// WriteFile encodes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		_ = f.Close() // the Encode error is the one worth surfacing
		return err
	}
	return f.Close()
}

// ReadFile decodes a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
