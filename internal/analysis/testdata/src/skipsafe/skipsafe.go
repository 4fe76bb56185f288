// Package skipsafe is a spawnvet golden-test fixture for the idle
// fast-forward contract: every effect class the analyzer reports,
// staged beside the sanctioned patterns.
package skipsafe

import (
	"errors"
	"time"
)

// Cycle mirrors kernel.Cycle.
type Cycle uint64

// launches is package-level state: skip-path writes to it are effects.
var launches int

// table is package-level state reachable through aliases.
var table = map[int]int{}

// GPU mirrors the engine root; Run carries the canonical
// activity-branch shape the analyzer locates structurally.
type GPU struct {
	clock   Cycle
	pending int
	idle    uint64
	events  chan int
}

func (g *GPU) Run() error {
	for g.pending > 0 {
		if n := g.nextWork(); n <= 0 && g.active() {
			g.clock++
			continue
		}
		// The fast-forward region: everything below runs only when the
		// engine has proven itself idle.
		span := g.estimate() // clean: pure computation
		_ = lookup(span)     // trusted: //spawnvet:pure
		g.recordStats()      // flagged inside: package-level write
		g.touch()            // flagged inside: receiver mutation
		g.logIdle()          // flagged inside: ambient I/O
		g.fanout()           // flagged inside: goroutine spawn
		g.publish()          // flagged inside: channel send
		g.probe()            // flagged inside helper: multi-hop chain
		scribble()           // flagged inside: aliased global write
		g.skim()             // flagged inside: bare directive fails closed
		g.tally()            // suppressed inside: //spawnvet:allow
		g.pace()             // trusted: //spawnvet:skipsafe
		if g.wedged() {
			return g.abort("wedged while idle") // cold return path: excluded
		}
	}
	return nil
}

// active reports whether any unit has work this cycle.
func (g *GPU) active() bool { return g.pending%2 == 1 }

// nextWork is the dueness probe in the activity branch's init: the
// stepped reference engine re-evaluates it every idle cycle, so its
// closure is walked from the condition roots.
func (g *GPU) nextWork() int {
	g.sniff()
	return g.pending - 1
}

// sniff mutates the receiver from the dueness probe: flagged via the
// chain nextWork → sniff even though the probe is outside the
// false-edge region.
func (g *GPU) sniff() {
	g.idle++ // flagged
}

// wedged is a clean predicate on the skip path.
func (g *GPU) wedged() bool { return g.pending < 0 }

// estimate is frame-local computation: no effects.
func (g *GPU) estimate() int {
	n := g.pending * 3
	return n + 1
}

//spawnvet:pure fixture: table lookup over data frozen at construction
func lookup(x int) int { return x * 2 }

// recordStats writes package-level state.
func (g *GPU) recordStats() {
	launches++ // flagged
}

// touch mutates the receiver: even the GPU's own fields must stay
// frozen while the engine fast-forwards.
func (g *GPU) touch() {
	g.idle++ // flagged
}

// logIdle reads the wall clock.
func (g *GPU) logIdle() {
	_ = time.Now() // flagged
}

// fanout schedules observable work.
func (g *GPU) fanout() {
	go func() {}() // flagged
}

// publish sends an observable event.
func (g *GPU) publish() {
	g.events <- 1 // flagged
}

// probe looks harmless, but its callee is not: the diagnostic carries
// the discovery chain probe → helper.
func (g *GPU) probe() {
	helper()
}

func helper() {
	launches++ // flagged via the chain from probe
}

// scribble writes package-level state through a local alias.
func scribble() {
	t := table
	t[1] = 2 // flagged: aliases the package-level table
}

// skim is NOT trusted: the bare directive below is malformed and fails
// closed (a directive diagnostic plus the effect itself).
//
//spawnvet:skipsafe
func (g *GPU) skim() {
	launches++ // flagged: the malformed directive confers no trust
}

// tally stages site-level suppression.
func (g *GPU) tally() {
	//spawnvet:allow skipsafe fixture: diagnostic counter is invisible to simulated state
	launches++
}

// pace tracks wall-clock pacing for the progress callback.
//
//spawnvet:skipsafe fixture: pacing fields are presentation-only and never feed simulated state
func (g *GPU) pace() {
	g.idle++
	_ = time.Now()
}

// abort sits on a cold return path (deadlock surfacing), so the
// skip-path walk excludes it.
func (g *GPU) abort(msg string) error {
	launches++ // unflagged: cold path
	return errors.New(msg)
}

// profTick is a standing skip-path root by name: the engine may invoke
// it while idle regardless of call sites.
func (g *GPU) profTick() {
	g.idle++ // flagged
	g.bumpMaybe(g.pending == 0)
}

// dispatch has every effect in the book but is never on the skip path:
// unflagged (the contract gates on reachability from the idle region).
func (g *GPU) dispatch() {
	launches++
	g.idle++
	_ = time.Now()
}

// bumpMaybe rebinds its receiver on one branch only: on the other path
// the write still lands in the caller's GPU.
func (g *GPU) bumpMaybe(scratch bool) {
	if scratch {
		g = &GPU{}
	}
	g.idle++ // flagged
}
