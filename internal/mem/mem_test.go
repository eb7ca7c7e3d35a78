package mem_test

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestRegInitialBottom(t *testing.T) {
	r := mem.NewReg("r")
	if r.Load() != mem.Bottom {
		t.Fatalf("fresh register = %d, want ⊥", r.Load())
	}
	if r.Name() != "r" {
		t.Fatalf("name = %q", r.Name())
	}
}

// TestRegStoreLoadRoundTrip: a register returns exactly what was stored.
func TestRegStoreLoadRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		r := mem.NewReg("r")
		r.Store(v)
		return r.Load() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegLastWriteWins: after any store sequence, Load returns the last.
func TestRegLastWriteWins(t *testing.T) {
	f := func(vs []uint64) bool {
		if len(vs) == 0 {
			return true
		}
		r := mem.NewReg("r")
		for _, v := range vs {
			r.Store(v)
		}
		return r.Load() == vs[len(vs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegArrayNamesAndInit(t *testing.T) {
	rs := mem.NewRegArray("A", 3)
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[1].Name() != "A[1]" {
		t.Fatalf("name = %q", rs[1].Name())
	}
	for _, r := range rs {
		if r.Load() != mem.Bottom {
			t.Fatal("array register not ⊥")
		}
	}
	rs2 := mem.NewRegArrayInit("B", 2, 7)
	if rs2[0].Load() != 7 || rs2[1].Load() != 7 {
		t.Fatal("init array wrong values")
	}
}

// TestConsObjectSemantics checks the paper's C-consensus model: the
// first proposal is decided; invocations 2..C see it; invocations > C
// see ⊥ — for arbitrary C and proposal sequences.
func TestConsObjectSemantics(t *testing.T) {
	f := func(cRaw uint8, props []uint32) bool {
		c := int(cRaw%8) + 1
		o := mem.NewConsObject("o", c)
		if o.Decided() != mem.Bottom || o.C() != c {
			return false
		}
		for i, p := range props {
			got := o.Invoke(mem.Word(p))
			switch {
			case i >= c:
				if got != mem.Bottom {
					return false
				}
			case i == 0:
				if got != mem.Word(p) {
					return false
				}
			default:
				if got != mem.Word(props[0]) {
					return false
				}
			}
		}
		return o.Invocations() == len(props)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConsObjectPanicsOnBadC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for C=0")
		}
	}()
	mem.NewConsObject("bad", 0)
}

// TestCASObjectSemantics checks the baseline hardware-CAS word.
func TestCASObjectSemantics(t *testing.T) {
	f := func(init, old, new uint64) bool {
		o := mem.NewCASObject("c", init)
		ok := o.CompareAndSwap(old, new)
		if init == old {
			return ok && o.Load() == new
		}
		return !ok && o.Load() == init
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
