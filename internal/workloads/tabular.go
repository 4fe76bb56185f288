package workloads

import "spawnsim/internal/inputs"

// NewJoin builds the relational-join application: parent thread p owns
// outer tuple p; its items are the Matches(p) inner-relation probes.
// Each probe loads the inner tuple (hash-scattered) and appends one
// output row. Output offsets are exclusive-prefix-summed so writes are
// dense and conflict-free.
func NewJoin(name string, r *inputs.Relation) *App {
	outStart := make([]int, r.N+1)
	for i := 0; i < r.N; i++ {
		outStart[i+1] = outStart[i] + r.Matches(i)
	}
	// Baseline-DP joins offload tuples with above-average match counts.
	sum := outStart[r.N]
	return &App{
		Name:             name,
		Elements:         r.N,
		Items:            r.Matches,
		DefaultThreshold: sum / r.N,
		SetupLoads:       1, // the outer tuple
		SetupAddr: func(p, slot int) uint64 {
			return r.RBase + uint64(8*p)
		},
		Ops: ItemOps{
			ALULat: 6,
			Loads:  1,
			Stores: 1,
			Addr: func(p, j, it, slot int) uint64 {
				if slot == 0 { // probe the inner tuple (hash-scattered)
					idx := (p*2654435761 + j*40503) % r.SSize
					if idx < 0 {
						idx += r.SSize
					}
					return r.SBase + uint64(8*idx)
				}
				// append the joined row
				return r.OutBase + uint64(8*(outStart[p]+j))
			},
		},
	}
}

// NewMM builds the sparse-row matrix multiply: parent thread p owns row
// p of the multiplicand; a child kernel spawns one thread per multiplier
// column, each computing a dot product of NNZ(p) multiply-adds (loads of
// the stored element and the dense multiplier entry it selects). The
// workload metric is NNZ(p)*Cols — the total serialized work of row p.
func NewMM(m *inputs.SparseMatrix) *App {
	return &App{
		Name:     "mm",
		Elements: m.Rows,
		Items:    func(p int) int { return m.Cols },
		Metric:   func(p int) int { return m.NNZ(p) * m.Cols },
		// One child per row with Cols threads: few, heavyweight kernels.
		ChildCTASize:     64,
		DefaultThreshold: 0, // MM offloads aggressively by default
		SetupLoads:       2, // RowPtr[p], RowPtr[p+1]
		SetupAddr: func(p, slot int) uint64 {
			return m.RowPtrBase + uint64(4*(p+slot))
		},
		Ops: ItemOps{
			Inner:  func(p, j int) int { return m.NNZ(p) },
			ALULat: 4,
			Loads:  2,
			Stores: 0,
			Addr: func(p, j, it, slot int) uint64 {
				e := int(m.RowStart(p)) + it
				if slot == 0 { // stored element (value stream of row p)
					return m.ValBase + uint64(4*e)
				}
				// dense multiplier element B[ColIdx(e)][j]
				return m.DenseBase + uint64(4*(int(m.ColIdx(e))*m.Cols+j))
			},
			FinalStores: 1,
			FinalAddr: func(p, j, slot int) uint64 {
				return m.OutBase + uint64(4*(p*m.Cols+j))
			},
		},
	}
}

// NewSA builds the sequence-alignment application: parent thread p owns
// read p; its items are the candidate reference locations. Verifying a
// candidate costs MatchIters comparison iterations, each loading a read
// word (cached, hot) and a reference word (scattered across the index).
func NewSA(name string, r *inputs.Reads) *App {
	return &App{
		Name:             name,
		Elements:         r.N,
		Section:          4,
		Items:            r.Candidates,
		DefaultThreshold: 8,
		SetupLoads:       1, // the candidate list head
		SetupAddr: func(p, slot int) uint64 {
			return r.IndexBase + uint64(8*p)
		},
		Ops: ItemOps{
			Inner:  func(p, j int) int { return r.MatchIters },
			ALULat: 4,
			Loads:  2,
			Stores: 0,
			Addr: func(p, j, it, slot int) uint64 {
				if slot == 0 { // read word (p's own 64B record)
					return r.ReadBase + uint64(64*p+4*(it%16))
				}
				// reference word at the candidate location
				loc := (p*1664525 + j*22695477) & (r.RefSize - 1)
				return r.RefBase + uint64(loc&^3+4*it)
			},
			FinalStores: 1,
			FinalAddr: func(p, j, slot int) uint64 {
				return r.OutBase + uint64(16*p)
			},
		},
	}
}

// NewMandel builds the Mandelbrot application: parent thread p owns a
// region of pixelsPerRegion pixels; a child kernel spawns one thread per
// pixel, each iterating the escape-time recurrence Iters-many times
// (pure ALU; one final store of the pixel color). The workload metric is
// the region's total iteration count, which is what separates boundary
// regions from fast-escaping ones.
func NewMandel(g *inputs.MandelGrid, pixelsPerRegion int) *App {
	regions := g.N / pixelsPerRegion
	pixIters := func(p, j int) int { return g.Iters((p*pixelsPerRegion + j) % g.N) }
	metric := make([]int, regions)
	for p := 0; p < regions; p++ {
		for j := 0; j < pixelsPerRegion; j++ {
			metric[p] += pixIters(p, j)
		}
	}
	return &App{
		Name:     "mandel",
		Elements: regions,
		Items:    func(p int) int { return pixelsPerRegion },
		Metric:   func(p int) int { return metric[p] },
		// Threshold in iteration units: offload regions needing more
		// than ~2 average pixels' worth of work... default tuned low.
		DefaultThreshold: 32 * pixelsPerRegion,
		Ops: ItemOps{
			Inner:       pixIters,
			ALULat:      4,
			Loads:       0,
			Stores:      0,
			FinalStores: 1,
			FinalAddr: func(p, j, slot int) uint64 {
				return g.OutBase + uint64(4*(p*pixelsPerRegion+j))
			},
		},
	}
}

// NewAMR builds the adaptive-mesh-refinement application with nested
// dynamic parallelism: parent thread p owns cell p and refines Refine(p)
// sub-cells; every 8th sub-cell sits on the flame front and spawns a
// nested (grandchild) refinement of SubWork items.
func NewAMR(m *inputs.AMRMesh) *App {
	subPeriod := int(1 / m.SubFrac) // every k-th sub-cell nests
	return &App{
		Name:             "amr",
		Elements:         m.N,
		Section:          2,
		Items:            m.Refine,
		DefaultThreshold: 4,
		SetupLoads:       1, // the cell record
		SetupAddr: func(p, slot int) uint64 {
			return m.CellBase + uint64(32*p)
		},
		Ops: ItemOps{
			ALULat: 6,
			Loads:  1,
			Stores: 1,
			Addr: func(p, j, it, slot int) uint64 {
				if slot == 0 { // neighbor cell state
					return m.CellBase + uint64(32*((p+j+1)%m.N))
				}
				return m.SubBase + uint64(32*((p*8+j)%(m.N*8)))
			},
		},
		Nest: &Nest{
			SubItems: func(p, j int) int {
				if (p+j)%subPeriod == 0 {
					return m.SubWork
				}
				return 0
			},
			CTASize: 32,
			Encode:  func(p, j int) int { return p*512 + j%512 },
			Ops: ItemOps{
				ALULat: 6,
				Loads:  1,
				Stores: 1,
				Addr: func(pEnc, k, it, slot int) uint64 {
					cell := (pEnc/512 + k) % m.N
					if slot == 0 {
						return m.SubBase + uint64(32*((pEnc+k)%(m.N*8)))
					}
					return m.OutBase + uint64(32*cell)
				},
			},
		},
	}
}
