// Package mem implements the timing model of the GPU memory system:
// per-SMX L1 data caches, a partitioned shared L2, a crossbar
// interconnect, and banked row-buffer DRAM behind FR-FCFS-approximate
// memory controllers.
//
// The model is event-resolved: cache tag state is mutated at issue time
// and every transaction's completion cycle is computed immediately from
// its hit level plus port/bank contention (per-resource next-free times).
// See DESIGN.md §4 for the rationale.
package mem

import (
	"math/bits"

	"spawnsim/internal/sim/kernel"
)

// divisor divides by a count fixed at construction: a shift and a mask
// when the count is a power of two, one hardware division otherwise
// (Go computes x/n and x%n with a single DIV).
type divisor struct {
	n     uint64
	shift uint
	pow2  bool
}

func newDivisor(n int) divisor {
	u := uint64(n)
	return divisor{n: u, shift: uint(bits.TrailingZeros64(u)), pow2: u&(u-1) == 0}
}

// divmod returns x/n and x%n.
func (d divisor) divmod(x uint64) (q, r uint64) {
	if d.pow2 {
		return x >> d.shift, x & (d.n - 1)
	}
	return x / d.n, x % d.n
}

// way is one way of a set. tag holds line+1, so the zero way is invalid
// and matches no line; use is the LRU clock of the way's last access,
// 0 while the way has never been filled.
type way struct {
	tag uint64
	use uint64
}

// Cache is a set-associative cache tag array with LRU replacement.
// It tracks lines only (no data) and is addressed by line number.
// Lines are byte addresses shifted by the line size, so line+1 never
// wraps to the invalid tag.
type Cache struct {
	sets  divisor
	assoc int
	ways  []way // sets*assoc records, set-major

	clock uint64

	Accesses uint64
	Hits     uint64
}

// NewCache builds a cache of `bytes` capacity with `ways` associativity
// over lines of `lineBytes`.
func NewCache(bytes kernel.Bytes, ways int, lineBytes kernel.Bytes) *Cache {
	lines := int(bytes / lineBytes) // dimensionless line count
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		sets:  newDivisor(sets),
		assoc: ways,
		ways:  make([]way, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets.n) }

// set returns the ways of the set that line maps to.
func (c *Cache) set(line uint64) []way {
	_, s := c.sets.divmod(line)
	base := int(s) * c.assoc
	return c.ways[base : base+c.assoc]
}

// Access looks up (and on miss, allocates) the given line.
// It returns true on hit.
//
// One pass over the set finds both the hit way and the victim, with no
// data-dependent branch in the loop: the victim is the first way with
// the smallest use clock. Never-filled ways have use 0, and filled ways
// have distinct clocks, so this evicts exactly the line that "the last
// invalid way, else the least recently used" would; only the slot an
// invalid victim lands in differs, and nothing observes slots.
func (c *Cache) Access(line uint64) bool {
	c.clock++
	c.Accesses++
	set := c.set(line)
	tag := line + 1
	hit := -1
	victim, oldest := 0, set[0].use
	for i := range set {
		w := set[i]
		if w.tag == tag {
			hit = i
		}
		if w.use < oldest {
			victim, oldest = i, w.use
		}
	}
	if hit >= 0 {
		set[hit].use = c.clock
		c.Hits++
		return true
	}
	set[victim] = way{tag: tag, use: c.clock}
	return false
}

// Probe reports whether the line is present without touching LRU or stats.
func (c *Cache) Probe(line uint64) bool {
	for _, w := range c.set(line) {
		if w.tag == line+1 {
			return true
		}
	}
	return false
}

// HitRate returns Hits/Accesses (0 when no accesses).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}
