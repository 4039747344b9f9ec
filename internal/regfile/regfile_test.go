package regfile

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// inUse counts the allocated registers.
func inUse(f *File) int { return len(f.regs) - len(f.free) }

func TestAllocExhaustion(t *testing.T) {
	f := New("int", 4)
	var regs []PhysReg
	for i := 0; i < 4; i++ {
		p, ok := f.Alloc(0)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		regs = append(regs, p)
	}
	if _, ok := f.Alloc(0); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if inUse(f) != 4 || len(f.free) != 0 {
		t.Fatalf("inUse=%d free=%d", inUse(f), len(f.free))
	}
	f.Release(regs[0])
	if inUse(f) != 3 {
		t.Fatal("release with no refs did not free")
	}
	if _, ok := f.Alloc(1); !ok {
		t.Fatal("alloc after free failed")
	}
}

func TestRefCountDelaysFree(t *testing.T) {
	f := New("int", 2)
	p, _ := f.Alloc(0)
	f.IncRef(p)
	f.IncRef(p)
	f.Release(p)
	if inUse(f) != 1 {
		t.Fatal("register freed while referenced")
	}
	f.DecRef(p)
	if inUse(f) != 1 {
		t.Fatal("register freed with one reference outstanding")
	}
	f.DecRef(p)
	if inUse(f) != 0 {
		t.Fatal("register not freed after last reference drained")
	}
}

func TestReadyAndInv(t *testing.T) {
	f := New("int", 4)
	p, _ := f.Alloc(0)
	if f.Ready(p) {
		t.Fatal("fresh register ready")
	}
	f.MarkReady(p, false)
	if !f.Ready(p) || f.Inv(p) {
		t.Fatal("valid result misreported")
	}
	q, _ := f.Alloc(0)
	f.MarkReady(q, true)
	if !f.Ready(q) || !f.Inv(q) {
		t.Fatal("INV result misreported")
	}
	// Architectural state: always ready, never INV.
	if !f.Ready(None) || f.Inv(None) {
		t.Fatal("None misreported")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	f := New("int", 2)
	p, _ := f.Alloc(0)
	f.Release(p)
	// p freed; a second Release must panic (either via state() on the freed
	// register or the dead check).
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release(p)
}

func TestDecRefBelowZeroPanics(t *testing.T) {
	f := New("int", 2)
	p, _ := f.Alloc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("DecRef below zero did not panic")
		}
	}()
	f.DecRef(p)
}

func TestUseAfterFreePanics(t *testing.T) {
	f := New("int", 2)
	p, _ := f.Alloc(0)
	f.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkReady on freed register did not panic")
		}
	}()
	f.MarkReady(p, false)
}

func TestOwner(t *testing.T) {
	f := New("int", 4)
	p, _ := f.Alloc(3)
	if f.regs[p].owner != 3 {
		t.Fatalf("owner = %d", f.regs[p].owner)
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	// Property: drive the file with a random but well-formed sequence of
	// operations; invariants must hold throughout and everything must drain.
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		f := New("int", 16)
		type live struct {
			p        PhysReg
			refs     int
			released bool
		}
		var regs []*live
		for step := 0; step < 2000; step++ {
			switch r.Intn(5) {
			case 0, 1: // alloc
				if p, ok := f.Alloc(r.Intn(4)); ok {
					regs = append(regs, &live{p: p})
				}
			case 2: // add a reference
				if len(regs) > 0 {
					l := regs[r.Intn(len(regs))]
					f.IncRef(l.p)
					l.refs++
				}
			case 3: // drop a reference
				for _, l := range regs {
					if l.refs > 0 {
						f.DecRef(l.p)
						l.refs--
						break
					}
				}
			case 4: // release
				for _, l := range regs {
					if !l.released {
						f.Release(l.p)
						l.released = true
						break
					}
				}
			}
			// Drop fully-dead entries from our shadow list.
			kept := regs[:0]
			for _, l := range regs {
				if l.released && l.refs == 0 {
					continue
				}
				kept = append(kept, l)
			}
			regs = kept
			if err := f.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		// Drain everything.
		for _, l := range regs {
			for l.refs > 0 {
				f.DecRef(l.p)
				l.refs--
			}
			if !l.released {
				f.Release(l.p)
			}
		}
		return inUse(f) == 0 && f.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New("x", 0)
}

func BenchmarkAllocRelease(b *testing.B) {
	f := New("int", 320)
	var ring [256]PhysReg
	n := 0
	for i := 0; i < b.N; i++ {
		if n == 256 || len(f.free) == 0 {
			for j := 0; j < n; j++ {
				f.Release(ring[j])
			}
			n = 0
		}
		p, _ := f.Alloc(i & 3)
		ring[n] = p
		n++
	}
}

func TestInvalidSentinel(t *testing.T) {
	f := New("int", 2)
	if !f.Ready(Invalid) || !f.Inv(Invalid) {
		t.Fatal("Invalid sentinel must be ready and INV")
	}
	if !f.Ready(None) || f.Inv(None) {
		t.Fatal("None sentinel must be ready and valid")
	}
}

func TestOwnerCount(t *testing.T) {
	f := New("int", 8)
	a, _ := f.Alloc(0)
	b, _ := f.Alloc(1)
	f.Alloc(1)
	if f.OwnerCount(0) != 1 || f.OwnerCount(1) != 2 {
		t.Fatalf("owner counts = %d/%d", f.OwnerCount(0), f.OwnerCount(1))
	}
	f.Release(a)
	f.Release(b)
	if f.OwnerCount(0) != 0 || f.OwnerCount(1) != 1 {
		t.Fatalf("post-release owner counts = %d/%d", f.OwnerCount(0), f.OwnerCount(1))
	}
}
