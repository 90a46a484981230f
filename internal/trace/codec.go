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

// On-disk format (version 4), little-endian, streamed:
//
//	magic   [4]byte "SDVT"
//	version uint16
//	fflags  uint16            bit 0: truncated (no other bit is defined)
//	name    uvarint len + bytes
//	counts  uvarint ×3        static instructions, records, tuples
//	entry   uvarint           the first record's PC
//	text    per instruction: op, rd, rs1, rs2 (bytes) + zigzag-varint imm
//	tuples  uvarint per value, two per tuple (an emu.Record's Vals)
//	blocks  per block of up to 4,096 records, as the Trace holds it:
//	          w      byte     bytes per tuple index (1 to 4)
//	          idx    w × len  tuple index per record
//	          taken  uint64 × ⌈len/64⌉, one bit per record
//	crc32   uint32 (IEEE) over every preceding byte, header included
//
// The record section is the in-memory block layout written as it is, so
// Encode writes each block's bytes and Decode reads them into a block of
// exactly their size. No PC is stored but the entry PC: every other is
// its predecessor's successor (emu.Record.NextPC), and Decode derives
// each block's checkpoint in one forward walk. Nor is a halt: a trace
// that is not truncated ends in its halt record. Versions 1 and 2
// interned five values per record (EffAddr, StoreVal, Result and both
// source values), and version 3 stored a PC and a flag byte per record
// and delta-encoded its tuple indexes; Decode rejects them all, so such
// a trace is recorded again.

var magic = [4]byte{'S', 'D', 'V', 'T'}

// Version is the on-disk format version, the only one Decode accepts.
const Version = 4

const (
	fmtTruncated uint16 = 1 << 0

	// maxCount bounds decoded element counts, and maxName the name's
	// length, so a corrupt header cannot drive allocation before the
	// checksum is verified.
	maxCount = 1 << 31
	maxName  = 1 << 12

	// textCap bounds the text's initial capacity in instructions (64
	// KiB; every workload's text is far shorter), and dirRecs the block
	// directory's in records (257 blocks). Decode appends beyond them,
	// so a corrupt count cannot drive a large allocation before the data
	// (and finally the checksum) is seen. The tuple pool needs no bound:
	// it grows a chunk at a time as tuples are read.
	textCap = 4096
	dirRecs = 1 << 20

	// chunk is how many encoded bytes Encode stages between writes.
	chunk = 32 << 10
)

// cwriter stages encoded bytes and writes them in chunks, counting a CRC
// over everything written. It keeps the first write error and writes
// nothing after it.
type cwriter struct {
	w   io.Writer
	crc hash.Hash32
	buf []byte // staged bytes
	err error
}

// flush writes the staged bytes once there are at least n of them.
func (c *cwriter) flush(n int) {
	if len(c.buf) < n {
		return
	}
	if c.err == nil {
		c.crc.Write(c.buf)
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// Encode streams the trace to w in the versioned on-disk format.
func (t *Trace) Encode(w io.Writer) error {
	c := &cwriter{w: w, crc: crc32.NewIEEE()}
	var ff uint16
	if !t.halted {
		ff = fmtTruncated
	}
	var entry uint32
	if len(t.blocks) > 0 {
		entry = t.blocks[0].pc
	}
	c.buf = append(c.buf, magic[:]...)
	c.buf = binary.LittleEndian.AppendUint16(c.buf, Version)
	c.buf = binary.LittleEndian.AppendUint16(c.buf, ff)
	c.buf = binary.AppendUvarint(c.buf, uint64(len(t.name)))
	c.buf = append(c.buf, t.name...)
	for _, n := range []int{len(t.insts), t.n, t.TupleCount(), int(entry)} {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
	}
	for _, in := range t.insts {
		c.buf = append(c.buf, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
		c.buf = binary.AppendVarint(c.buf, in.Imm)
		c.flush(chunk)
	}
	for _, ch := range t.tuples.chunks {
		for _, k := range ch {
			c.buf = binary.AppendUvarint(binary.AppendUvarint(c.buf, k[0]), k[1])
			c.flush(chunk)
		}
	}
	for i := range t.blocks {
		b := &t.blocks[i]
		c.buf = append(append(c.buf, b.w), b.idx...)
		for _, w := range b.taken {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, w)
		}
		c.flush(chunk)
	}
	c.flush(0)
	// The checksum is not part of itself: it goes out after the CRC is
	// taken, and the CRC is not read again.
	c.buf = binary.LittleEndian.AppendUint32(c.buf, c.crc.Sum32())
	c.flush(0)
	return c.err
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
	if nameLen > maxName {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
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
	halted := ff&fmtTruncated == 0
	if halted && nRecs == 0 {
		return nil, fmt.Errorf("trace: not truncated, but no record holds the halt")
	}
	entry, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading entry PC: %w", err)
	}
	if entry > math.MaxUint32 {
		return nil, fmt.Errorf("trace: entry PC %#x exceeds the recordable range", entry)
	}

	t := &Trace{name: string(name), n: nRecs, halted: halted, insts: make([]isa.Inst, 0, min(nInsts, textCap))}
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
	var k [tupleWords]uint64
	for range nTuples {
		for w := range k {
			if k[w], err = c.uvarint(); err != nil {
				return nil, fmt.Errorf("trace: reading tuples: %w", err)
			}
		}
		t.tuples.add(&k)
	}
	t.blocks = make([]block, 0, min(nRecs, dirRecs)/blockLen+1)
	for lo := 0; lo < nRecs; lo += blockLen {
		b, err := c.block(lo, min(nRecs-lo, blockLen), uint32(nTuples))
		if err != nil {
			return nil, err
		}
		t.blocks = append(t.blocks, b)
	}
	want := c.crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(c.r, sum[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch (file %#x, computed %#x)", got, want)
	}
	t.blocks = exact(t.blocks)
	t.tuples.seal()
	if err := t.walk(uint32(entry)); err != nil {
		return nil, err
	}
	return t, nil
}

// block reads the block of records [lo, lo+n) at its exact size and
// checks it as the recorder builds it: indexes at the narrowest width
// that holds the largest, every index below the tuple count, and no
// taken bit past the last record.
func (c *creader) block(lo, n int, tuples uint32) (block, error) {
	w, err := c.ReadByte()
	if err != nil {
		return block{}, fmt.Errorf("trace: reading block at record %d: %w", lo, err)
	}
	if w < 1 || w > 4 {
		return block{}, fmt.Errorf("trace: block at record %d has index width %d (1 to 4 are defined)", lo, w)
	}
	b := block{w: w, idx: make([]byte, int(w)*n), taken: make([]uint64, (n+63)/64)}
	var words [blockLen / 8]byte
	p := words[:8*len(b.taken)]
	if err := c.full(b.idx); err != nil {
		return block{}, fmt.Errorf("trace: reading block at record %d: %w", lo, err)
	}
	if err := c.full(p); err != nil {
		return block{}, fmt.Errorf("trace: reading block at record %d: %w", lo, err)
	}
	var top uint32
	for j := range n {
		v := b.at(j)
		if v >= tuples {
			return block{}, fmt.Errorf("trace: record %d references tuple %d of %d", lo+j, v, tuples)
		}
		top = max(top, v)
	}
	if width(top) != int(w) {
		return block{}, fmt.Errorf("trace: block at record %d stores indexes in %d bytes, but its largest, %d, needs %d", lo, w, top, width(top))
	}
	for k := range b.taken {
		b.taken[k] = binary.LittleEndian.Uint64(p[8*k:])
	}
	if tail := n % 64; tail != 0 && b.taken[len(b.taken)-1]>>tail != 0 {
		return block{}, fmt.Errorf("trace: block at record %d sets taken bits past its %d records", lo, n)
	}
	return b, nil
}

// walk derives every PC forward from entry, as a Replayer does, and
// stores each block's first as the block's checkpoint. A PC above
// math.MaxUint32 is rejected, as Recorder.Finish rejects it; PCs need no
// other check: any PC outside the text materializes as a halt, exactly
// as the emulator executes it (a register-indirect jump may legitimately
// land past the text end).
func (t *Trace) walk(entry uint32) error {
	if t.n == 0 {
		return nil
	}
	t.blocks[0].pc = entry
	var d emu.Record
	for r := NewReplayer(t); r.Next(&d) && r.pos < t.n; {
		if r.pc > math.MaxUint32 {
			return fmt.Errorf("trace: record %d has PC %#x, beyond the recordable range (the successor of %v at PC %d)",
				r.pos, r.pc, d.Inst.Op, d.PC)
		}
		if r.pos%blockLen == 0 {
			t.blocks[r.pos/blockLen].pc = uint32(r.pc)
		}
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
