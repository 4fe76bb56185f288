// Package inputs generates the synthetic datasets that stand in for the
// paper's inputs (Table I): power-law "citation" graphs, Graph500 R-MAT
// graphs, uniform and Gaussian join relations, sparse matrices, sequence
// reads with heavy-tailed candidate counts, and AMR meshes. Every
// generator is seeded and deterministic, and every input is read-only
// once built: its arrays are unexported behind read accessors, so one
// input can be shared by many runs without any run changing it.
//
// Each dataset also carries a virtual-memory layout: its arrays are
// assigned base addresses in the simulated address space so workloads
// can emit realistic, locality-bearing memory accesses.
package inputs

// Layout hands out non-overlapping virtual address regions.
type Layout struct{ next uint64 }

// regionAlign keeps regions line- and row-disjoint.
const regionAlign = 4096

// NewLayout starts allocating at a non-zero base.
func NewLayout() *Layout { return &Layout{next: 1 << 20} }

// Alloc reserves `bytes` and returns the region base.
func (l *Layout) Alloc(bytes int) uint64 {
	base := l.next
	n := (uint64(bytes) + regionAlign - 1) &^ uint64(regionAlign-1)
	l.next += n
	return base
}
