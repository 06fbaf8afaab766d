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
// loop that co-schedules the attack's cores for one chunk at a time
// (RunCoresFor) and re-checks completion between chunks, so stepping in
// any increments replays the identical sequence of chunks — a session
// stepped to completion produces byte-identical samples to the
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
	cores    []int
	chunk    uint64
	iters    int
	maxIters int
	// starve selects the intra-core/kernel contract (an explicit
	// receiver-starved error at the iteration cap); the other channels
	// cap iterations silently and report what they observed.
	starve bool
	target int
}

// receiverChunkCap is the chunk-iteration cap of the receiver-driven
// channels (intra-core and kernel); reaching it without the samples is
// the starvation error.
const receiverChunkCap = 100000

// gapChunkCap is the chunk-iteration cap of the gap-observer channels
// (interrupt and flush) for a sample target: a sample-proportional
// bound.
func gapChunkCap(samples int) int { return samples*2 + 400 }

// concurrentChunkCap is the concurrent channels' chunk-iteration cap:
// their chunks are one slice, not eight.
func concurrentChunkCap(samples int) int { return samples*4 + 400 }

// schedule is how an attack's parties share the machine: the cores
// co-scheduled in each chunk and the chunk length in timeslices.
type schedule struct {
	cores  []int
	slices uint64
}

// timeShared is the time-shared channels' schedule: both domains take
// turns on core 0, eight slices per chunk.
var timeShared = schedule{cores: []int{0}, slices: 8}

func newInteractive(sys *core.System, ds *mi.Dataset, done func() bool, sched schedule, maxIters int, starve bool, target int) *Interactive {
	return &Interactive{
		sys: sys, ds: ds, done: done, cores: sched.cores,
		chunk: sched.slices * sys.Timeslice(), maxIters: maxIters, starve: starve, target: target,
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
		x.sys.RunCoresFor(x.cores, x.chunk)
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

// Steppable is one entry of the steppable-channel catalogue: a channel
// an Interactive can drive, under the name sessions and tpattack use.
type Steppable struct {
	Name string
	// Prepare builds the attack ready to be stepped; partition applies
	// to the interrupt channel only.
	Prepare func(s Spec, partition bool) (*Interactive, error)
	// ChunkCap is the most chunks an attack with the given sample target
	// can ever run.
	ChunkCap func(samples int) int
}

// steppable is the catalogue, in its documented order.
var steppable = []Steppable{
	intraSteppable("l1d", L1D), intraSteppable("l1i", L1I), intraSteppable("l2", L2),
	intraSteppable("tlb", TLB), intraSteppable("btb", BTB), intraSteppable("bhb", BHB),
	{
		Name:     "kernel",
		Prepare:  func(s Spec, _ bool) (*Interactive, error) { return PrepareKernelChannel(s) },
		ChunkCap: func(int) int { return receiverChunkCap },
	},
	{Name: "interrupt", Prepare: PrepareInterruptChannel, ChunkCap: gapChunkCap},
}

func intraSteppable(name string, res Resource) Steppable {
	return Steppable{
		Name:     name,
		Prepare:  func(s Spec, _ bool) (*Interactive, error) { return PrepareIntraCore(s, res) },
		ChunkCap: func(int) int { return receiverChunkCap },
	}
}

// SteppableChannels lists every steppable channel name.
func SteppableChannels() []string {
	names := make([]string, len(steppable))
	for i, c := range steppable {
		names[i] = c.Name
	}
	return names
}

// LookupSteppable returns the catalogue entry for a channel name.
func LookupSteppable(name string) (Steppable, bool) {
	for _, c := range steppable {
		if c.Name == name {
			return c, true
		}
	}
	return Steppable{}, false
}
