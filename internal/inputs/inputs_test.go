package inputs

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestLayoutDisjoint(t *testing.T) {
	l := NewLayout()
	a := l.Alloc(100)
	b := l.Alloc(5000)
	c := l.Alloc(1)
	if a == 0 {
		t.Error("base should be non-zero")
	}
	if b < a+100 {
		t.Error("regions overlap")
	}
	if c < b+5000 {
		t.Error("regions overlap")
	}
	if a%regionAlign != 0 || b%regionAlign != 0 {
		t.Error("regions unaligned")
	}
}

func TestCitationDeterministicAndSkewed(t *testing.T) {
	g1 := Citation(2000, 8, 42)
	g2 := Citation(2000, 8, 42)
	if g1.Edges() != g2.Edges() {
		t.Fatal("not deterministic")
	}
	if g1.N != 2000 {
		t.Fatalf("N = %d", g1.N)
	}
	// Power-law: max degree far exceeds the mean.
	mean := float64(g1.Edges()) / float64(g1.N)
	if float64(g1.MaxDegree()) < 5*mean {
		t.Errorf("max degree %d vs mean %.1f: not skewed", g1.MaxDegree(), mean)
	}
	// Different seed -> different graph.
	g3 := Citation(2000, 8, 43)
	if g3.Edges() == g1.Edges() && g3.MaxDegree() == g1.MaxDegree() {
		t.Log("warning: different seeds produced identical summary stats")
	}
}

func TestCitationCSRConsistency(t *testing.T) {
	g := Citation(500, 6, 7)
	if len(g.rowPtr) != g.N+1 {
		t.Fatalf("RowPtr length %d", len(g.rowPtr))
	}
	for v := 0; v < g.N; v++ {
		if g.rowPtr[v] > g.rowPtr[v+1] {
			t.Fatalf("RowPtr not monotone at %d", v)
		}
	}
	if int(g.rowPtr[g.N]) != len(g.adj) {
		t.Fatalf("RowPtr[N]=%d != len(Adj)=%d", g.rowPtr[g.N], len(g.adj))
	}
	for _, u := range g.adj {
		if u < 0 || int(u) >= g.N {
			t.Fatalf("edge target %d out of range", u)
		}
	}
}

func TestGraph500Shape(t *testing.T) {
	g := Graph500(10, 8, 1)
	if g.N != 1024 {
		t.Fatalf("N = %d, want 1024", g.N)
	}
	if g.Edges() != 1024*8 {
		t.Fatalf("edges = %d, want %d", g.Edges(), 1024*8)
	}
	// R-MAT skew: top-1% vertices should hold a large share of edges.
	degs := make([]int, g.N)
	for v := range degs {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	for _, d := range degs[:g.N/100] {
		top += d
	}
	if float64(top) < 0.1*float64(g.Edges()) {
		t.Errorf("top-1%% vertices hold %d/%d edges: insufficient skew", top, g.Edges())
	}
	// CSR consistency.
	sum := 0
	for v := 0; v < g.N; v++ {
		sum += g.Degree(v)
	}
	if sum != g.Edges() {
		t.Errorf("degree sum %d != edges %d", sum, g.Edges())
	}
}

func TestUniformRelationBalanced(t *testing.T) {
	r := UniformRelation(1000, 50, 3)
	for i, m := range r.matches {
		if m < 49-1 || m > 51 {
			t.Fatalf("tuple %d has %d matches, want ~50", i, m)
		}
	}
}

func TestGaussianRelationSpread(t *testing.T) {
	r := GaussianRelation(5000, 60, 25, 3)
	mean, varsum := 0.0, 0.0
	for _, m := range r.matches {
		mean += float64(m)
	}
	mean /= float64(r.N)
	for _, m := range r.matches {
		d := float64(m) - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / float64(r.N))
	if mean < 50 || mean > 70 {
		t.Errorf("mean = %.1f, want ~60", mean)
	}
	if sd < 15 || sd > 35 {
		t.Errorf("sd = %.1f, want ~25", sd)
	}
}

func TestSparseMatrixSkewAndCSR(t *testing.T) {
	m := NewSparseMatrix(1000, 64, 12, 9)
	total := 0
	maxN := 0
	for i, v := range m.nnz {
		if v < 0 {
			t.Fatalf("negative nnz at %d", i)
		}
		total += v
		if v > maxN {
			maxN = v
		}
	}
	if len(m.colIdx) != total {
		t.Fatalf("ColIdx length %d != nnz total %d", len(m.colIdx), total)
	}
	if float64(maxN) < 4*float64(total)/float64(m.Rows) {
		t.Errorf("max nnz %d vs mean %.1f: not skewed", maxN, float64(total)/float64(m.Rows))
	}
	if m.RowStart(0) != 0 {
		t.Error("RowStart(0) != 0")
	}
	if int(m.RowStart(m.Rows-1))+m.nnz[m.Rows-1] != total {
		t.Error("last row does not end at nnz total")
	}
}

func TestReadsHeavyTail(t *testing.T) {
	r := ThalianaReads(4000, 5)
	sorted := append([]int(nil), r.candidates...)
	sort.Ints(sorted)
	median := sorted[len(sorted)/2]
	p99 := sorted[len(sorted)*99/100]
	if p99 < 5*median {
		t.Errorf("p99 %d vs median %d: tail too light for thaliana profile", p99, median)
	}
	e := ElegansReads(4000, 5)
	if e.N != 4000 || e.MatchIters != 8 {
		t.Error("elegans profile misconfigured")
	}
}

func TestAMRMeshFronts(t *testing.T) {
	m := NewAMRMesh(4096, 11)
	zero, heavy := 0, 0
	for _, r := range m.refine {
		if r == 0 {
			zero++
		}
		if r > 40 {
			heavy++
		}
	}
	if zero < m.N/4 {
		t.Errorf("only %d/%d cells quiescent; fronts should be localized", zero, m.N)
	}
	if heavy == 0 {
		t.Error("no heavily refined cells; flame fronts missing")
	}
}

func TestMandelGridBoundary(t *testing.T) {
	g := NewMandelGrid(4096, 512)
	inSet, fast := 0, 0
	for _, it := range g.iters {
		if it == g.MaxIter {
			inSet++
		}
		if it < 32 {
			fast++
		}
	}
	if inSet == 0 {
		t.Error("no pixels reach max iterations; region misses the set")
	}
	if fast == 0 {
		t.Error("no fast-escaping pixels; region entirely inside the set")
	}
}

// Property: all generators produce structures with non-negative
// workloads and consistent lengths for arbitrary small sizes/seeds.
func TestGeneratorsWellFormedProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%500 + 10
		g := Citation(n, 4, seed)
		if g.N != n || len(g.rowPtr) != n+1 {
			return false
		}
		r := GaussianRelation(n, 10, 5, seed)
		for _, m := range r.matches {
			if m < 0 {
				return false
			}
		}
		sm := NewSparseMatrix(n, 16, 6, seed)
		for _, v := range sm.nnz {
			if v < 0 {
				return false
			}
		}
		rd := ThalianaReads(n, seed)
		for _, c := range rd.candidates {
			if c < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
