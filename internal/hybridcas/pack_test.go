package hybridcas

import (
	"testing"
	"testing/quick"
)

// White-box property tests for cell-name packing.

func TestPackKeyRoundTrip(t *testing.T) {
	f := func(id uint16, tag uint32) bool {
		k := cellKey{id: int(id % (maxProcs + 1)), tag: int(tag % (maxTagsPerOp + 1))}
		return unpackKey(packKey(k)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyInjective(t *testing.T) {
	f := func(id1, id2 uint16, tag1, tag2 uint32) bool {
		a := cellKey{id: int(id1 % (maxProcs + 1)), tag: int(tag1 % (maxTagsPerOp + 1))}
		b := cellKey{id: int(id2 % (maxProcs + 1)), tag: int(tag2 % (maxTagsPerOp + 1))}
		if a == b {
			return true
		}
		return packKey(a) != packKey(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyFitsQlocalDomain(t *testing.T) {
	f := func(id uint16, tag uint32) bool {
		k := cellKey{id: int(id % (maxProcs + 1)), tag: int(tag % (maxTagsPerOp + 1))}
		return packKey(k) <= 1<<32-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewCellTagsMonotone(t *testing.T) {
	o := New("o", 1, 0)
	k1, _ := o.newCell(3)
	k2, _ := o.newCell(3)
	k3, _ := o.newCell(4)
	if k1.id != 4 || k2.id != 4 || k3.id != 5 {
		t.Fatalf("ids: %d %d %d (owner+1 expected)", k1.id, k2.id, k3.id)
	}
	if k2.tag != k1.tag+1 {
		t.Fatalf("tags not monotone: %d then %d", k1.tag, k2.tag)
	}
	if k3.tag != 0 {
		t.Fatalf("fresh process tag = %d, want 0", k3.tag)
	}
}

func TestGenesisState(t *testing.T) {
	o := New("o", 2, 42)
	if got := o.Peek(); got != 42 {
		t.Fatalf("initial Peek = %d, want 42", got)
	}
	if o.ChainLen() != 0 {
		t.Fatalf("fresh chain length = %d", o.ChainLen())
	}
	if o.Levels() != 2 {
		t.Fatalf("levels = %d", o.Levels())
	}
	if o.lookup(cellKey{id: 0, tag: 0}) == nil {
		t.Fatal("genesis cell missing")
	}
	if o.lookup(cellKey{}).depth.Load() != 0 {
		t.Fatal("genesis depth != 0")
	}
}
