package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
)

// CodecVersion identifies the binary trace encoding produced by
// AppendBinary. Any change to the field set or layout of the encoding —
// including growing isa.Inst — must bump it, so that persisted traces from
// an older build decode as a version mismatch rather than as garbage.
//
// Version 2 encodes each instruction in 22 bytes: PC and Addr as
// little-endian uint64s, then one byte each for Op, Dst, Src1, Src2, Taken
// and AddrDependsOnLoad.
const CodecVersion = 2

// instBytes is the encoded size of one instruction.
const instBytes = 8 + 8 + 1 + 1 + 1 + 1 + 1 + 1

// AppendBinary appends a deterministic little-endian encoding of the trace
// to buf and returns the extended slice. The encoding captures every field
// the simulator can observe (identity, geometry, and the full instruction
// sequence), so DecodeBinary reconstructs a trace indistinguishable from
// the original.
func (t *Trace) AppendBinary(buf []byte) []byte {
	buf = appendString(buf, t.Name)
	buf = append(buf, byte(t.Class))
	buf = binary.LittleEndian.AppendUint64(buf, t.coldBase)
	buf = binary.LittleEndian.AppendUint64(buf, t.coldSpan)
	buf = binary.LittleEndian.AppendUint64(buf, t.shiftStep)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.insts)))
	for i := range t.insts {
		in := &t.insts[i]
		buf = binary.LittleEndian.AppendUint64(buf, in.PC)
		buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
		buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2))
		buf = appendBool(buf, in.Taken)
		buf = appendBool(buf, in.AddrDependsOnLoad)
	}
	return buf
}

// EncodedSize returns the exact byte length AppendBinary will produce,
// letting callers size the destination buffer in one allocation.
func (t *Trace) EncodedSize() int {
	return 4 + len(t.Name) + 1 + 3*8 + 8 + len(t.insts)*instBytes
}

// DecodeBinary reconstructs a trace from an AppendBinary encoding. Any
// truncation, trailing garbage, or structurally impossible value is
// reported as an error — callers treat a failed decode as a cache miss,
// never as a crash.
func DecodeBinary(data []byte) (*Trace, error) {
	d := codecReader{data: data}
	t := &Trace{}
	t.Name = d.str()
	t.Class = Class(d.u8())
	t.coldBase = d.u64()
	t.coldSpan = d.u64()
	t.shiftStep = d.u64()
	n := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("trace: decode: impossible instruction count %d", n)
	}
	if remaining := len(d.data) - d.off; uint64(remaining) != n*instBytes {
		return nil, fmt.Errorf("trace: decode: %d bytes of instructions for count %d", remaining, n)
	}
	t.insts = make([]isa.Inst, n)
	for i := range t.insts {
		in := &t.insts[i]
		in.PC = d.u64()
		in.Addr = d.u64()
		in.Op = d.op()
		in.Dst = d.reg()
		in.Src1 = d.reg()
		in.Src2 = d.reg()
		in.Taken = d.bool()
		in.AddrDependsOnLoad = d.bool()
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// codecReader is a bounds-checked cursor over encoded bytes. The first
// out-of-bounds read latches err and every later read returns zero, so
// decode loops stay straight-line and check err once.
type codecReader struct {
	data []byte
	off  int
	err  error
}

func (d *codecReader) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("trace: decode: truncated at offset %d", d.off)
	}
}

func (d *codecReader) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.data) {
		d.fail()
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *codecReader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// op reads an operation class, rejecting bytes that name no defined op.
func (d *codecReader) op() isa.Op {
	v := d.u8()
	if int(v) >= isa.NumOps && d.err == nil {
		d.err = fmt.Errorf("trace: decode: op byte %d at offset %d", v, d.off-1)
	}
	return isa.Op(v)
}

// reg reads a register operand, rejecting anything but RegNone or an
// architectural register.
func (d *codecReader) reg() isa.Reg {
	r := isa.Reg(int8(d.u8()))
	if r != isa.RegNone && !r.Valid() && d.err == nil {
		d.err = fmt.Errorf("trace: decode: register %d at offset %d", r, d.off-1)
	}
	return r
}

func (d *codecReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *codecReader) bool() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("trace: decode: bool byte %d at offset %d", v, d.off-1)
	}
	return v == 1
}

func (d *codecReader) str() string {
	b := d.take(4)
	if b == nil {
		return ""
	}
	n := binary.LittleEndian.Uint32(b)
	if n > 1<<20 {
		d.fail()
		return ""
	}
	s := d.take(int(n))
	return string(s)
}
