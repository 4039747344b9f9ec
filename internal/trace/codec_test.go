package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestCodecRoundTrip(t *testing.T) {
	for _, name := range []string{"art", "gzip", "mcf"} {
		orig := MustGenerate(MustLookup(name), Options{Len: 2000, Seed: 7, DataBase: 0x5000_0000})
		data := orig.AppendBinary(nil)
		if len(data) != orig.EncodedSize() {
			t.Fatalf("%s: encoded %d bytes, EncodedSize says %d", name, len(data), orig.EncodedSize())
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("%s: decoded trace differs from original", name)
		}
	}
}

func TestCodecRoundTripHandBuilt(t *testing.T) {
	orig := FromInsts("custom", ClassILP, []isa.Inst{
		{Op: isa.OpLoad, Dst: isa.IntReg(3), Src1: isa.RegNone, Addr: 0x1234, AddrDependsOnLoad: true},
		{PC: 0x40_0004, Op: isa.OpBranch, Dst: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.FPReg(31), Taken: true},
	})
	got, err := DecodeBinary(orig.AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("decoded hand-built trace differs from original")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	data := MustGenerate(MustLookup("art"), Options{Len: 100, Seed: 1}).AppendBinary(nil)
	for _, n := range []int{0, 1, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := DecodeBinary(data[:n]); err == nil {
			t.Fatalf("no error decoding %d of %d bytes", n, len(data))
		}
	}
}

func TestCodecRejectsTrailingGarbage(t *testing.T) {
	data := MustGenerate(MustLookup("art"), Options{Len: 100, Seed: 1}).AppendBinary(nil)
	if _, err := DecodeBinary(append(data, 0xff)); err == nil {
		t.Fatal("no error for trailing garbage")
	}
}

func TestCodecRejectsBadBool(t *testing.T) {
	tr := FromInsts("x", ClassILP, []isa.Inst{{Op: isa.OpIntAlu}})
	data := tr.AppendBinary(nil)
	data[len(data)-1] = 7 // AddrDependsOnLoad byte of the last instruction
	if _, err := DecodeBinary(data); err == nil {
		t.Fatal("no error for out-of-range bool byte")
	}
}

func TestCodecRejectsOutOfRangeOperand(t *testing.T) {
	tr := FromInsts("x", ClassILP, []isa.Inst{{Op: isa.OpIntAlu, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.FPReg(2)}})
	data := tr.AppendBinary(nil)
	if _, err := DecodeBinary(data); err != nil {
		t.Fatalf("valid instruction rejected: %v", err)
	}
	// The last instruction's operand bytes sit just before its two bools;
	// the instruction count sits just before the only instruction.
	opOff := len(data) - 6
	countOff := len(data) - instBytes - 8
	cases := []struct {
		name string
		off  int
		b    byte
	}{
		{"op NumOps", opOff, byte(isa.NumOps)},
		{"op 255", opOff, 255},
		{"dst NumArchRegs", opOff + 1, isa.NumArchRegs},
		{"src1 -2", opOff + 2, 0xfe},
		{"src2 127", opOff + 3, 127},
		{"src2 -128", opOff + 3, 0x80},
		{"count 0", countOff, 0},
		{"count 2^32+1", countOff + 4, 1},
	}
	for _, c := range cases {
		bad := append([]byte(nil), data...)
		bad[c.off] = c.b
		if _, err := DecodeBinary(bad); err == nil {
			t.Errorf("%s: no error for out-of-range byte %#x", c.name, c.b)
		}
	}
}

// TestCodecCoversInstSchema pins the isa.Inst field set the codec was
// written against. If it fails, a field was added, removed or retyped:
// update AppendBinary/DecodeBinary/EncodedSize to carry the new shape,
// bump CodecVersion so persisted traces from older builds read as a
// version-mismatch miss, and then update this table.
func TestCodecCoversInstSchema(t *testing.T) {
	want := map[string]string{
		"PC":                "uint64",
		"Addr":              "uint64",
		"Op":                "isa.Op",
		"Dst":               "isa.Reg",
		"Src1":              "isa.Reg",
		"Src2":              "isa.Reg",
		"Taken":             "bool",
		"AddrDependsOnLoad": "bool",
	}
	typ := reflect.TypeOf(isa.Inst{})
	if typ.NumField() != len(want) {
		t.Fatalf("isa.Inst has %d fields, codec encodes %d: bump trace.CodecVersion and extend the codec",
			typ.NumField(), len(want))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if got := f.Type.String(); want[f.Name] != got {
			t.Fatalf("isa.Inst.%s is %s, codec expects %q: bump trace.CodecVersion and extend the codec",
				f.Name, got, want[f.Name])
		}
	}
}

// FuzzDecodeBinary feeds arbitrary bytes to the decoder. It must never
// panic, and anything it accepts must hold only in-range operands and
// re-encode to exactly the input bytes.
func FuzzDecodeBinary(f *testing.F) {
	// Short seeds keep each input small, so the fuzzer spends its time
	// mutating rather than minimizing kilobyte-sized inputs.
	for _, name := range []string{"art", "mcf", "gzip"} {
		f.Add(MustGenerate(MustLookup(name), Options{Len: 6, Seed: 3}).AppendBinary(nil))
	}
	f.Add(FromInsts("custom", ClassMEM, []isa.Inst{
		{PC: 0x40, Op: isa.OpFpLoad, Dst: isa.FPReg(0), Src1: isa.IntReg(31), Src2: isa.RegNone, Addr: 0xdead_beef, AddrDependsOnLoad: true},
		{PC: 0x44, Op: isa.OpBlock, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: true},
	}).AppendBinary(nil))
	// Impossible instruction counts: none, and one past int32.
	for _, n := range []uint64{0, math.MaxInt32 + 1} {
		data := FromInsts("x", ClassILP, []isa.Inst{{Op: isa.OpIntAlu}}).AppendBinary(nil)
		binary.LittleEndian.PutUint64(data[len(data)-instBytes-8:], n)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBinary(data)
		if err != nil {
			return
		}
		for i := range tr.insts {
			in := &tr.insts[i]
			if int(in.Op) >= isa.NumOps {
				t.Fatalf("inst %d: accepted op %d", i, in.Op)
			}
			for _, r := range []isa.Reg{in.Dst, in.Src1, in.Src2} {
				if r != isa.RegNone && !r.Valid() {
					t.Fatalf("inst %d: accepted register %d", i, r)
				}
			}
		}
		if got := tr.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("re-encoding differs from accepted input (%d vs %d bytes)", len(got), len(data))
		}
	})
}
