package unionfind

import "sync/atomic"

// Concurrent is a lock-free disjoint-set forest safe for use from many
// goroutines, using the link-by-index rule: a root may only ever acquire a
// parent with a *larger* id, installed by compare-and-swap. That monotone
// rule makes the structure linearizable without ranks (Goel et al. / the
// simplified Jayanti–Tarjan scheme); path halving keeps chains short in
// practice. Used by parallel Boruvka's hooking step (through the mst
// Workspace) and by the cross-check harness against the sequential UF.
type Concurrent struct {
	parent []atomic.Uint32
}

// NewConcurrent returns a Concurrent union-find over n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]atomic.Uint32, n)}
	for i := range c.parent {
		c.parent[i].Store(uint32(i))
	}
	return c
}

// Find returns the canonical representative of x's set, applying path
// halving along the way. Concurrent unions may change the representative;
// the return value was x's root at some point during the call.
func (c *Concurrent) Find(x uint32) uint32 {
	for {
		p := c.parent[x].Load()
		if p == x {
			return x
		}
		gp := c.parent[p].Load()
		if gp == p {
			return p
		}
		// Path halving: try to splice x up to its grandparent. A failed CAS
		// just means someone else improved the path; carry on.
		c.parent[x].CompareAndSwap(p, gp)
		x = gp
	}
}

// Union merges the sets of a and b; returns true if this call performed the
// merge (i.e. they were distinct when it succeeded).
func (c *Concurrent) Union(a, b uint32) bool {
	for {
		ra, rb := c.Find(a), c.Find(b)
		if ra == rb {
			return false
		}
		// Link the smaller-id root under the larger-id root. Only roots are
		// linked, and only to larger ids, so no cycles can form.
		if ra > rb {
			ra, rb = rb, ra
		}
		if c.parent[ra].CompareAndSwap(ra, rb) {
			return true
		}
		// ra stopped being a root underneath us; retry with fresh roots.
	}
}

// Count returns the number of disjoint sets. Only meaningful when no unions
// are concurrently in flight. O(n).
func (c *Concurrent) Count() int {
	count := 0
	for i := range c.parent {
		if c.parent[i].Load() == uint32(i) {
			count++
		}
	}
	return count
}

// Len returns the number of elements.
func (c *Concurrent) Len() int { return len(c.parent) }

// Reset returns the structure to n singleton sets, reusing storage when it
// is large enough. Must not race with any other method; reusing one
// Concurrent across runs this way keeps repeated queries allocation-free.
func (c *Concurrent) Reset(n int) {
	if cap(c.parent) < n {
		c.parent = make([]atomic.Uint32, n)
	}
	c.parent = c.parent[:n]
	for i := range c.parent {
		c.parent[i].Store(uint32(i))
	}
}
