package analysis

import (
	"go/token"
	"testing"
)

// TestHotPathRealTreeReach pins the cross-package walk over the real
// engine: functions reached only from another package, or only as a
// method value handed to a dispatcher, must be in the hot set without
// any //spawnvet:hotpath marker.
func TestHotPathRealTreeReach(t *testing.T) {
	g := realTreeGraph(t, "../sim", "../sim/kernel", "../sim/gmu", "../sim/smx", "../sim/mem", "../profile")
	hot := map[string]bool{}
	walkHot(g, HotPathAnalyzer().AppliesTo,
		func(sum *funcSummary, _ []string) { hot[sum.displayName()] = true },
		func(sum *funcSummary, _ token.Pos, chain []string) {
			t.Errorf("depth cap exceeded inside %s (chain: %s)", sum.displayName(), chainText(chain))
		})
	for _, want := range []string{
		"sim.(GPU).place",        // method value passed to gmu.Dispatch
		"kernel.NewCTA",          // cross-package callee of the placement path
		"gmu.(GMU).Yield",        // cross-package callee of sim.(GPU).Run
		"smx.(SMX).Place",        // formerly a hand-placed root
		"mem.(Hierarchy).Access", // formerly a hand-placed root
		"profile.(Profile).Record",
	} {
		if !hot[want] {
			t.Errorf("hot set (%d functions) lacks %s", len(hot), want)
		}
	}
}
