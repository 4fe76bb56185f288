package workloads

import "spawnsim/internal/inputs"

// SharedInputs builds (on first use) and returns every input the
// registry shares between runs, by name.
func SharedInputs() map[string]any {
	return map[string]any{
		"citation":       citationGraph(),
		"graph500":       g500Graph(),
		"join-uniform":   uniformRel(),
		"join-gaussian":  gaussianRel(),
		"mandel":         mandelGrid(),
		"mm-small":       mmSmall(),
		"mm-large":       mmLarge(),
		"reads-thaliana": thalianaReads(),
		"reads-elegans":  elegansReads(),
		"amr":            amrMesh(),
	}
}

// Graph500Input returns the shared graph the *-graph500 benchmarks read.
func Graph500Input() *inputs.Graph { return g500Graph() }
