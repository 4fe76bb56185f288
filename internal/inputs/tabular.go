package inputs

import (
	"math"
	"math/rand"
)

// Relation models the probe side of a hash join: tuple i of the outer
// relation R matches Matches(i) tuples of the inner relation S.
type Relation struct {
	N       int
	matches []int

	RBase   uint64 // outer tuples
	SBase   uint64 // inner tuples (match targets)
	OutBase uint64 // join output
	SSize   int    // inner-relation cardinality (address range of SBase)
}

// Matches returns how many inner tuples outer tuple i matches.
func (r *Relation) Matches(i int) int { return r.matches[i] }

func layoutRelation(r *Relation, sSize int) {
	l := NewLayout()
	r.RBase = l.Alloc(8 * r.N)
	r.SSize = sSize
	r.SBase = l.Alloc(8 * sSize)
	total := 0
	for _, m := range r.matches {
		total += m
	}
	r.OutBase = l.Alloc(8 * (total + 1))
}

// UniformRelation generates a join input with near-constant matches per
// tuple (JOIN-uniform): the workload is balanced across parent threads,
// which is why the paper finds this benchmark prefers not launching
// children at all.
func UniformRelation(n, matches int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := &Relation{N: n, matches: make([]int, n)}
	for i := range r.matches {
		// +/-1 jitter keeps it realistic without creating imbalance.
		r.matches[i] = matches + rng.Intn(3) - 1
		if r.matches[i] < 0 {
			r.matches[i] = 0
		}
	}
	layoutRelation(r, n*matches/4+16)
	return r
}

// GaussianRelation generates a join input whose per-tuple match counts
// follow a (clamped) normal distribution (JOIN-gaussian): moderate
// imbalance with a long-ish right tail.
func GaussianRelation(n int, mean, sd float64, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := &Relation{N: n, matches: make([]int, n)}
	for i := range r.matches {
		m := int(math.Round(rng.NormFloat64()*sd + mean))
		if m < 0 {
			m = 0
		}
		r.matches[i] = m
	}
	layoutRelation(r, int(float64(n)*mean/4)+16)
	return r
}

// SparseMatrix is a CSR sparse matrix times a dense multiplier: parent
// thread i owns row i (NNZ(i) non-zeros); the DP child kernel spawns one
// thread per multiplier column, each computing one dot product of
// NNZ(i) multiply-adds (the paper's MM structure).
type SparseMatrix struct {
	Rows int
	Cols int // multiplier columns (child kernel width)
	nnz  []int

	RowPtrBase uint64
	ColIdxBase uint64
	ValBase    uint64
	DenseBase  uint64
	OutBase    uint64
	colIdx     []int32 // column index of each stored element
	rowPtr     []int32
}

// NNZ returns the non-zero count of row r.
func (m *SparseMatrix) NNZ(r int) int { return m.nnz[r] }

// ColIdx returns the column index of stored element e, in CSR order.
func (m *SparseMatrix) ColIdx(e int) int32 { return m.colIdx[e] }

// RowStart returns the CSR offset of row r's first element.
func (m *SparseMatrix) RowStart(r int) int32 { return m.rowPtr[r] }

// NewSparseMatrix generates a matrix whose per-row non-zero counts are
// Pareto-distributed (exponent ~1.6: a few very dense rows), matching
// the "severe workload imbalance" the paper attributes to its sparse
// inputs. cols is the dense multiplier width.
func NewSparseMatrix(rows, cols, avgNNZ int, seed int64) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	alpha := 2.0
	xm := float64(avgNNZ) * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	m := &SparseMatrix{Rows: rows, Cols: cols, nnz: make([]int, rows)}
	total := 0
	maxNNZ := 12 * avgNNZ
	for i := range m.nnz {
		u := rng.Float64()
		v := int(xm * math.Pow(1-u, -1/alpha))
		if v > maxNNZ {
			v = maxNNZ
		}
		m.nnz[i] = v
		total += v
	}
	m.rowPtr = make([]int32, rows+1)
	acc := int32(0)
	for i, v := range m.nnz {
		m.rowPtr[i] = acc
		acc += int32(v)
	}
	m.rowPtr[rows] = acc
	m.colIdx = make([]int32, total)
	for i := range m.colIdx {
		m.colIdx[i] = int32(rng.Intn(rows))
	}
	l := NewLayout()
	m.RowPtrBase = l.Alloc(4 * (rows + 1))
	m.ColIdxBase = l.Alloc(4 * total)
	m.ValBase = l.Alloc(4 * total)
	m.DenseBase = l.Alloc(4 * rows * cols)
	m.OutBase = l.Alloc(4 * rows * cols)
	return m
}

// Reads models a set of sequencing reads for the SA (sequence
// alignment) application: read i has Candidates(i) candidate locations
// in the reference index; each candidate costs MatchIters inner
// comparison iterations.
type Reads struct {
	N          int
	candidates []int
	MatchIters int // per-candidate verification iterations (read length / word)

	ReadBase  uint64
	IndexBase uint64
	RefBase   uint64
	OutBase   uint64
	RefSize   int
}

// Candidates returns the candidate reference locations of read i.
func (r *Reads) Candidates(i int) int { return r.candidates[i] }

// readsProfile generates heavy-tailed candidate counts via a lognormal
// distribution, the empirical shape of seed-and-extend mappers: most
// reads have a handful of candidates, repeats have thousands.
func readsProfile(n int, mu, sigma float64, matchIters int, seed int64) *Reads {
	rng := rand.New(rand.NewSource(seed))
	r := &Reads{N: n, candidates: make([]int, n), MatchIters: matchIters}
	maxC := 1 << 14
	for i := range r.candidates {
		c := int(math.Exp(rng.NormFloat64()*sigma + mu))
		if c < 1 {
			c = 1
		}
		if c > maxC {
			c = maxC
		}
		r.candidates[i] = c
	}
	l := NewLayout()
	r.ReadBase = l.Alloc(64 * n)
	r.IndexBase = l.Alloc(8 * n)
	r.RefSize = 1 << 22
	r.RefBase = l.Alloc(r.RefSize)
	r.OutBase = l.Alloc(16 * n)
	return r
}

// ThalianaReads mimics the Arabidopsis thaliana dataset of the paper:
// a compact genome with strong repeat families — long candidate tail.
func ThalianaReads(n int, seed int64) *Reads { return readsProfile(n, 2.4, 1.4, 8, seed) }

// ElegansReads mimics the C. elegans dataset used in the DTBL
// comparison (Figure 21): similar shape, shorter tail.
func ElegansReads(n int, seed int64) *Reads { return readsProfile(n, 2.2, 1.1, 8, seed) }

// AMRMesh models one refinement step of a combustion adaptive-mesh
// simulation: cell i needs Refine(i) sub-cells; sub-cell (i,j) may need
// SubRefine more levels of nested refinement when the local "flame
// front" intensity is high (driving the paper's nested child launches).
type AMRMesh struct {
	N      int
	refine []int
	// SubFrac is the fraction of sub-cells that refine one level deeper;
	// SubWork is the work items of such a nested refinement.
	SubFrac float64
	SubWork int

	CellBase uint64
	SubBase  uint64
	OutBase  uint64
}

// Refine returns the sub-cell count of cell i.
func (m *AMRMesh) Refine(i int) int { return m.refine[i] }

// NewAMRMesh generates a mesh whose refinement demand follows a smooth
// intensity field with sharp fronts: a minority of cells refine heavily.
func NewAMRMesh(n int, seed int64) *AMRMesh {
	rng := rand.New(rand.NewSource(seed))
	m := &AMRMesh{N: n, refine: make([]int, n), SubFrac: 0.125, SubWork: 16}
	// Intensity field: sum of a few random Gaussian bumps over [0,1).
	type bump struct{ c, w, h float64 }
	bumps := make([]bump, 6)
	for i := range bumps {
		bumps[i] = bump{c: rng.Float64(), w: 0.01 + rng.Float64()*0.05, h: 20 + rng.Float64()*120}
	}
	for i := range m.refine {
		x := float64(i) / float64(n)
		v := 0.0
		for _, b := range bumps {
			d := (x - b.c) / b.w
			v += b.h * math.Exp(-d*d)
		}
		m.refine[i] = int(v)
	}
	l := NewLayout()
	m.CellBase = l.Alloc(32 * n)
	m.SubBase = l.Alloc(32 * n * 8)
	m.OutBase = l.Alloc(32 * n)
	return m
}

// MandelGrid models the Mandelbrot benchmark: pixel block i needs
// Iters(i) escape-time iterations, computed from the actual Mandelbrot
// recurrence over a region crossing the set boundary (the classic
// source of extreme workload imbalance).
type MandelGrid struct {
	N       int
	iters   []int
	MaxIter int

	OutBase uint64
}

// Iters returns the escape-time iteration count of pixel block i.
func (g *MandelGrid) Iters(i int) int { return g.iters[i] }

// NewMandelGrid samples an n-block strip across the seahorse valley.
func NewMandelGrid(n, maxIter int) *MandelGrid {
	g := &MandelGrid{N: n, iters: make([]int, n), MaxIter: maxIter}
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	for i := range g.iters {
		px, py := i%side, i/side
		cr := -0.78 + 0.06*float64(px)/float64(side)
		ci := 0.10 + 0.06*float64(py)/float64(side)
		zr, zi := 0.0, 0.0
		it := 0
		for ; it < maxIter && zr*zr+zi*zi < 4; it++ {
			zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
		}
		g.iters[i] = it
	}
	l := NewLayout()
	g.OutBase = l.Alloc(4 * n)
	return g
}
