package channel

import (
	"math"
	"math/rand"

	"timeprotection/internal/core"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/trace"
)

// emit records a channel-protocol trace event when the system the
// program runs on has event recording enabled.
func emit(e *kernel.Env, kind trace.Kind, addr, arg uint64) {
	if t := e.Kernel().Tracer; t != nil && t.EventsEnabled() {
		t.Emit(e.Core(), kind, trace.UnitChannel, addr, arg)
	}
}

// slicePhase detects the first Step of each new time slice by watching
// for large jumps of the cycle counter (the thread was offline).
type slicePhase struct {
	lastNow uint64
	started bool
}

func (p *slicePhase) newSlice(e *kernel.Env) bool {
	now := e.Now()
	fresh := !p.started || now-p.lastNow > e.TimesliceCycles()/2
	p.started = true
	p.lastNow = now
	return fresh
}

func (p *slicePhase) touch(e *kernel.Env) { p.lastNow = e.Now() }

// Sender is a covert-channel trojan: at the start of each of its slices
// it draws a fresh symbol and then repeatedly executes the symbol's
// access pattern until preempted.
type Sender struct {
	Symbols int
	Act     func(e *kernel.Env, symbol int)

	rng       *rand.Rand
	phase     slicePhase
	current   int
	previous  int
	sentCount int
}

// NewSender builds a sender with a deterministic symbol sequence.
func NewSender(symbols int, seed int64, act func(e *kernel.Env, symbol int)) *Sender {
	return &Sender{Symbols: symbols, Act: act, rng: rand.New(rand.NewSource(seed))}
}

// Current returns the symbol encoded in the sender's most recent slice.
func (s *Sender) Current() int { return s.current }

// Previous returns the symbol of the slice before the current one —
// needed by observers that attribute a measurement after the sender has
// already started its next slice.
func (s *Sender) Previous() int { return s.previous }

// Sent reports whether at least one symbol has been encoded.
func (s *Sender) Sent() bool { return s.sentCount > 0 }

// SentTwice reports whether Previous is meaningful.
func (s *Sender) SentTwice() bool { return s.sentCount > 1 }

// idleSpin is the busy-wait unit used to hold the CPU between the
// once-per-slice actions (the microarchitectural state, once planted,
// persists while the thread spins — nothing else runs in its slice).
const idleSpin = 1000

// Step implements kernel.Program: encode once at the start of each
// slice, then hold the CPU so the planted footprint survives until the
// receiver's slice.
func (s *Sender) Step(e *kernel.Env) bool {
	if s.phase.newSlice(e) {
		s.previous = s.current
		s.current = s.rng.Intn(s.Symbols)
		s.sentCount++
		emit(e, trace.ChannelSymbol, uint64(s.current), 0)
		s.Act(e, s.current)
	} else {
		e.Spin(idleSpin)
	}
	s.phase.touch(e)
	return true
}

// Receiver measures once per slice (the first Step after regaining the
// core) and keeps the probed state primed for the rest of the slice.
// Each measurement is recorded against the sender's current symbol.
type Receiver struct {
	Measure func(e *kernel.Env) float64
	Prime   func(e *kernel.Env)

	sender *Sender
	ds     *mi.Dataset
	phase  slicePhase
	target int
	warmup int
}

// receiverWarmup is the number of initial measurements discarded while
// caches, TLBs and predictors converge from their cold boot state.
const receiverWarmup = 8

// NewReceiver builds a receiver collecting `target` samples after a
// short warm-up.
func NewReceiver(sender *Sender, target int, measure func(e *kernel.Env) float64, prime func(e *kernel.Env)) *Receiver {
	return &Receiver{Measure: measure, Prime: prime, sender: sender, ds: &mi.Dataset{}, target: target, warmup: receiverWarmup}
}

// Dataset returns the samples collected so far.
func (r *Receiver) Dataset() *mi.Dataset { return r.ds }

// Done reports whether the target sample count has been reached.
func (r *Receiver) Done() bool { return r.ds.N() >= r.target }

// Step implements kernel.Program: measure at the first Step of each
// slice (the moment the sender's interference is freshest), re-prime
// once, then hold the CPU.
func (r *Receiver) Step(e *kernel.Env) bool {
	if r.phase.newSlice(e) {
		if r.sender.Sent() && !r.Done() {
			sym := uint64(r.sender.Current())
			emit(e, trace.ChannelSampleBegin, sym, 0)
			v := r.Measure(e)
			emit(e, trace.ChannelSampleEnd, sym, math.Float64bits(v))
			if r.warmup > 0 {
				r.warmup--
			} else {
				r.ds.Add(r.sender.Current(), v)
			}
		}
		if r.Prime != nil {
			r.Prime(e)
		}
	} else {
		e.Spin(idleSpin)
	}
	r.phase.touch(e)
	return true
}

// slotSender is the trojan of the concurrent channels (interconnect,
// DRAM row buffers, hyperthread siblings). It shares no core with the
// receiver, so there is no slice boundary to key on: it draws a fresh
// symbol every quarter slice of its own clock, then repeats act and a
// spin until preempted. act holds all of a channel's encoding.
type slotSender struct {
	symbols    int
	slotCycles uint64
	spin       int
	act        func(e *kernel.Env, symbol int)
	rng        *rand.Rand

	current   int
	slotStart uint64
	started   bool
}

func newSlotSender(sys *core.System, symbols int, seed int64, spin int, act func(e *kernel.Env, symbol int)) *slotSender {
	return &slotSender{symbols: symbols, slotCycles: sys.Timeslice() / 4, spin: spin, act: act, rng: rand.New(rand.NewSource(seed))}
}

// Step implements kernel.Program.
func (s *slotSender) Step(e *kernel.Env) bool {
	now := e.Now()
	if !s.started || now-s.slotStart >= s.slotCycles {
		s.started = true
		s.slotStart = now
		s.current = s.rng.Intn(s.symbols)
	}
	s.act(e, s.current)
	e.Spin(s.spin)
	return true
}

// burstReceiver is the spy of the concurrent channels: each step it
// times one burst of its own accesses and records the duration against
// the symbol the sender is encoding at that moment, after discarding
// warmup bursts while its caches reach a steady state.
type burstReceiver struct {
	burst  func(e *kernel.Env)
	sender *slotSender
	spin   int
	ds     *mi.Dataset
	target int
	warmup int
}

func newBurstReceiver(sender *slotSender, target, warmup, spin int, burst func(e *kernel.Env)) *burstReceiver {
	return &burstReceiver{burst: burst, sender: sender, spin: spin, ds: &mi.Dataset{}, target: target, warmup: warmup}
}

func (r *burstReceiver) Done() bool { return r.ds.N() >= r.target }

// Step implements kernel.Program.
func (r *burstReceiver) Step(e *kernel.Env) bool {
	t0 := e.Now()
	r.burst(e)
	elapsed := float64(e.Now() - t0)
	if r.warmup > 0 {
		r.warmup--
	} else if !r.Done() {
		r.ds.Add(r.sender.current, elapsed)
	}
	e.Spin(r.spin)
	return true
}

// runConcurrent spawns a concurrent channel's sender in domain 0 and
// its receiver in domain 1 and co-schedules cores (sender's first) one
// slice per chunk until the receiver has its samples or the
// sample-proportional cap is reached; it reports what was observed.
func runConcurrent(sys *core.System, name string, cores []int, sender *slotSender, recv *burstReceiver) (*mi.Dataset, error) {
	if _, err := sys.Spawn(0, name+"-sender", 10, sender); err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(1, name+"-receiver", 10, recv); err != nil {
		return nil, err
	}
	return newInteractive(sys, recv.ds, recv.Done, schedule{cores: cores, slices: 1}, concurrentChunkCap(recv.target), false, recv.target).Run()
}
