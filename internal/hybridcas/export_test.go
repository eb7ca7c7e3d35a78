package hybridcas

import "repro/internal/mem"

// ChainLen returns the number of successful nontrivial operations
// applied. Post-run inspection only.
func (o *Object) ChainLen() int {
	if o.rec != nil {
		return o.appends
	}
	n := 0
	k := cellKey{id: 0, tag: 0}
	for {
		nxt := o.cellAt(k).nxt.Peek()
		if nxt == mem.Bottom {
			return n
		}
		k = unpackKey(nxt)
		n++
	}
}
