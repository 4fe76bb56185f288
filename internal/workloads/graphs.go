package workloads

import "spawnsim/internal/inputs"

// NewBFS builds the breadth-first-search application over a graph: each
// parent thread owns a vertex; its offloadable items are the vertex's
// out-edges. Per edge, the thread loads the neighbor id from the CSR
// adjacency array (sequential — coalesces well), probes the neighbor's
// visited flag (scattered), and updates the frontier/distance array.
func NewBFS(g *inputs.Graph) *App {
	return &App{
		Name:             "bfs",
		Elements:         g.N,
		Section:          2,
		Items:            g.Degree,
		DefaultThreshold: 8,
		SetupLoads:       2, // RowPtr[v], RowPtr[v+1]
		SetupAddr: func(p, slot int) uint64 {
			return g.RowPtrBase + uint64(4*(p+slot))
		},
		Ops: ItemOps{
			ALULat: 4,
			Loads:  2,
			Stores: 1,
			Addr: func(p, j, it, slot int) uint64 {
				e := int(g.RowPtr(p)) + j
				switch slot {
				case 0: // adjacency entry (streamed)
					return g.AdjBase + uint64(4*e)
				case 1: // neighbor's visited flag (scattered)
					return g.PropBase + uint64(4*g.Adj(e))
				default: // distance/frontier update
					return g.Prop2Base + uint64(4*g.Adj(e))
				}
			},
		},
	}
}

// NewSSSP builds single-source shortest path: like BFS, plus a per-edge
// weight load and a heavier relax computation per edge.
func NewSSSP(g *inputs.Graph) *App {
	return &App{
		Name:             "sssp",
		Elements:         g.N,
		Section:          2,
		Items:            g.Degree,
		DefaultThreshold: 8,
		SetupLoads:       2, // RowPtr[v], RowPtr[v+1]
		SetupAddr: func(p, slot int) uint64 {
			return g.RowPtrBase + uint64(4*(p+slot))
		},
		Ops: ItemOps{
			ALULat: 8,
			Loads:  3,
			Stores: 1,
			Addr: func(p, j, it, slot int) uint64 {
				e := int(g.RowPtr(p)) + j
				switch slot {
				case 0: // adjacency entry
					return g.AdjBase + uint64(4*e)
				case 1: // edge weight (streamed alongside)
					return g.EdgeWBase + uint64(4*e)
				case 2: // neighbor's current distance (scattered)
					return g.PropBase + uint64(4*g.Adj(e))
				default: // relaxed distance write
					return g.PropBase + uint64(4*g.Adj(e))
				}
			},
		},
	}
}

// NewGC builds graph coloring: per edge the thread reads the neighbor's
// color (scattered) and marks the conflict bitmap; one final store
// commits the vertex's own color.
func NewGC(g *inputs.Graph) *App {
	return &App{
		Name:             "gc",
		Elements:         g.N,
		Section:          2,
		Items:            g.Degree,
		DefaultThreshold: 8,
		SetupLoads:       2, // RowPtr[v], RowPtr[v+1]
		SetupAddr: func(p, slot int) uint64 {
			return g.RowPtrBase + uint64(4*(p+slot))
		},
		Ops: ItemOps{
			ALULat: 4,
			Loads:  2,
			Stores: 0,
			Addr: func(p, j, it, slot int) uint64 {
				e := int(g.RowPtr(p)) + j
				if slot == 0 { // adjacency entry
					return g.AdjBase + uint64(4*e)
				}
				// neighbor's color
				return g.PropBase + uint64(4*g.Adj(e))
			},
			FinalStores: 1,
			FinalAddr: func(p, j, slot int) uint64 {
				// own color (same line for all items of p; cheap)
				return g.Prop2Base + uint64(4*p)
			},
		},
	}
}
