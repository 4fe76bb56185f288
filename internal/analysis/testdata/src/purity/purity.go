// Package purity stages run-reachable impurities for the purity
// analyzer: every effect class, both trust boundaries, and the
// suppression grammar. The golden file pins the exact diagnostics.
package purity

import (
	"os"
	"time"
)

// GPU mirrors the simulator core's receiver shape; its Run method is a
// purity root no matter which package it lives in.
type GPU struct {
	cycles uint64
}

// launchCount is the package-level state the staged helpers mutate.
var launchCount int

// lastInput retains caller memory handed to Run (the leak target).
var lastInput []byte

// table is package-level state aliased through a local below.
var table = make([]int, 4)

// Run reaches every staged impurity.
func (g *GPU) Run(input []byte) uint64 {
	g.cycles++ // receiver state stays in-frame: pure
	g.page()
	bump()
	stamp()
	retain(input)
	poke()
	sneaky()
	frozen()
	g.cycles += heartbeat(input)
	return g.cycles
}

func (g *GPU) page() {
	// Not flagged: os.Getpagesize is in the PureFuncs registry.
	g.cycles += uint64(os.Getpagesize())
}

func bump() {
	launchCount++ // want: package-level write, chain Run → bump
}

func stamp() { tick() }

func tick() {
	_ = time.Now() // want: ambient I/O, chain Run → stamp → tick
}

func retain(in []byte) {
	lastInput = in // want: pointer input leaks into package state
}

func poke() {
	t := table
	t[0] = 1 // want: write through an alias of package-level state
}

//spawnvet:pure
func sneaky() {
	launchCount = 0 // still flagged: the bare directive above is malformed
}

// frozen stands in for a hand-vetted boundary: the ambient read is
// discarded before anything observable depends on it.
//
//spawnvet:pure fixture stand-in for a vetted boundary; nothing escapes
func frozen() {
	_ = os.Getenv("HOME") // not flagged: trusted pure leaf
}

func heartbeat(in []byte) uint64 {
	retainMaybe(in, len(in) == 0)
	//spawnvet:allow purity presentation-only rate estimate for the fixture
	return uint64(time.Now().Unix())
}

// coldReset is impure but unreachable from any run root: not flagged.
func coldReset() { launchCount = 0 }

// retainMaybe reassigns its parameter on one branch only: on the other
// path the caller's memory still reaches the package-level write.
func retainMaybe(in []byte, fresh bool) {
	if fresh {
		in = make([]byte, 1)
	}
	lastInput = in // want: pointer input leaks when !fresh
}
