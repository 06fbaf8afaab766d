package channel

import (
	"fmt"

	"timeprotection/internal/core"
	"timeprotection/internal/mi"
)

// Interactive is a prepared covert-channel attack that advances under
// caller control instead of running to completion: the machine is
// booted (snapshot-forked), sender and receiver are spawned, and each
// StepSamples call drives the simulation in the same fixed chunks the
// one-shot Run* entry points use. Every entry point shares one chunk
// loop that re-checks completion between chunks, so stepping in any
// increments replays the identical sequence of RunCoreFor calls — a
// session stepped to completion produces byte-identical samples to the
// equivalent one-shot run. The chunk count is therefore an exact
// position: a fresh attack advanced to the same count is in the same
// state. The session API is built on this type; pkg/timeprot
// re-exposes it as Session.
//
// An Interactive is single-goroutine, like the simulator it owns.
type Interactive struct {
	sys      *core.System
	ds       *mi.Dataset
	done     func() bool
	chunk    uint64
	iters    int
	maxIters int
	// starve selects the intra-core/kernel contract (an explicit
	// receiver-starved error at the iteration cap); the interrupt
	// channel caps iterations silently and reports what it observed.
	starve bool
	target int
}

// ReceiverChunkCap is the chunk-iteration cap of the receiver-driven
// channels (intra-core and kernel); reaching it without the samples is
// the starvation error.
const ReceiverChunkCap = 100000

// InterruptChunkCap is the interrupt channel's chunk-iteration cap for
// a sample target: the one-shot loop's sample-proportional bound.
func InterruptChunkCap(samples int) int { return samples*2 + 400 }

func newInteractive(sys *core.System, ds *mi.Dataset, done func() bool, maxIters int, starve bool, target int) *Interactive {
	return &Interactive{
		sys: sys, ds: ds, done: done,
		chunk: sys.Timeslice() * 8, maxIters: maxIters, starve: starve, target: target,
	}
}

// Dataset returns the samples collected so far (live — it grows as the
// attack is stepped).
func (x *Interactive) Dataset() *mi.Dataset { return x.ds }

// Done reports whether the attack has collected its full target.
func (x *Interactive) Done() bool { return x.done() }

// Target returns the configured sample target.
func (x *Interactive) Target() int { return x.target }

// Chunks returns how many simulation chunks the attack has run.
func (x *Interactive) Chunks() int { return x.iters }

// starved is the error the one-shot loop reports when the iteration cap
// is reached before the receiver has its samples.
func (x *Interactive) starved() error {
	return fmt.Errorf("channel: receiver starved (collected %d samples)", x.ds.N())
}

// run is the one chunk loop behind every entry point: it runs
// simulation chunks while the attack is incomplete, under the
// iteration cap, and more (when non-nil) holds. stop, when non-nil, is
// polled before each chunk; returning true abandons the loop.
func (x *Interactive) run(more, stop func() bool) {
	for x.iters < x.maxIters && !x.done() && (more == nil || more()) {
		if stop != nil && stop() {
			return
		}
		x.sys.RunCoreFor(0, x.chunk)
		x.iters++
	}
}

// StepSamples advances the attack until at least n more samples have
// been collected, the attack completes, or the iteration cap is
// reached, and returns the samples this call collected. It runs whole
// chunks, so it may collect more than n. stop, when non-nil, is polled
// between simulation chunks; returning true abandons the step early (a
// session checks its closed flag here, so deleting a session halts an
// in-flight step at the next chunk boundary).
func (x *Interactive) StepSamples(n int, stop func() bool) ([]mi.Sample, error) {
	from := x.ds.N()
	goal := from + n
	x.run(func() bool { return x.ds.N() < goal }, stop)
	if x.iters >= x.maxIters && !x.done() && x.starve {
		return x.ds.Since(from), x.starved()
	}
	return x.ds.Since(from), nil
}

// AdvanceTo runs chunks until the attack has run n of them, stopping
// early only where any other entry point would (completion or the
// iteration cap). It reports whether the attack reached exactly n
// chunks — false when n is behind the attack or past where it stops.
func (x *Interactive) AdvanceTo(n int) bool {
	x.run(func() bool { return x.iters < n }, nil)
	return x.iters == n
}

// Run drives the attack to completion — the one-shot entry points'
// loop, expressed over the prepared state.
func (x *Interactive) Run() (*mi.Dataset, error) {
	x.run(nil, nil)
	if !x.done() && x.starve {
		return nil, x.starved()
	}
	return x.ds, nil
}
