package session

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/trace"
)

// Trace modes: which events a session publishes to its subscribers.
const (
	// TraceOff attaches no sink: the machine forks through the normal
	// snapshot path and the stream carries only MI updates, lifecycle
	// events and heartbeats.
	TraceOff = "off"
	// TraceProtocol (the default) publishes the channel-protocol and
	// kernel events (symbols, sample boundaries, switches, flushes) —
	// the narrative of the attack without the per-access firehose.
	TraceProtocol = "protocol"
	// TraceAll publishes every microarchitectural event. Orders of
	// magnitude chattier; the bounded buffers make it safe, not cheap.
	TraceAll = "all"
)

// Session close reasons, carried by the stream's closed event.
const (
	CloseDeleted  = "deleted"  // DELETE /v1/sessions/{id}
	CloseIdle     = "idle"     // idle-TTL reaper
	CloseShutdown = "shutdown" // registry drain
)

// Spec is the POST /v1/sessions body: which attack to mount. Defaults
// follow the channel.Spec/PR-3 semantics — the conventional values
// live here in the declaration layer, seed 0 is a valid seed distinct
// from an absent one, and the normalized spec is echoed back to the
// client.
type Spec struct {
	// Channel is the attack: l1d|l1i|l2|tlb|btb|bhb|kernel|interrupt.
	Channel string `json:"channel"`
	// Scenario is raw|fullflush|protected (default raw).
	Scenario string `json:"scenario,omitempty"`
	// Platform is haswell|sabre (default haswell).
	Platform string `json:"platform,omitempty"`
	// Samples is the target sample count (default 200).
	Samples int `json:"samples,omitempty"`
	// Seed drives the sender's symbol sequence (absent = 42; 0 valid).
	Seed *int64 `json:"seed,omitempty"`
	// PadMicros pads domain switches (protected scenario); at most
	// MaxPadMicros.
	PadMicros float64 `json:"pad_micros,omitempty"`
	// Partition binds the interrupt channel's line to the trojan's
	// kernel image (Kernel_SetInt).
	Partition bool `json:"partition,omitempty"`
	// DisablePrefetcher models the §5.3.2 ablation.
	DisablePrefetcher bool `json:"disable_prefetcher,omitempty"`
	// Trace selects the stream's event feed: off|protocol|all
	// (default protocol).
	Trace string `json:"trace,omitempty"`
}

// MaxPadMicros bounds a session's switch padding at one second: four
// orders of magnitude above the paper's 58.8/62.5 µs pads. Its cycle
// count (3.4e9 on Haswell, 8e8 on Sabre) fits a uint64 with room for
// billions of padded switches before a core's clock could overflow; an
// unbounded pad past about 5.4e15 µs would make the float-to-uint64
// conversion in Platform.MicrosToCycles implementation-defined.
const MaxPadMicros = 1e6

// withDefaults validates the spec and fills the declaration-level
// defaults, returning the normalized form a session echoes back.
func (sp Spec) withDefaults() (Spec, error) {
	if sp.Channel == "" {
		return sp, fmt.Errorf("%w: missing channel (%v)", ErrBadSpec, channel.SteppableChannels())
	}
	if _, ok := channel.LookupSteppable(sp.Channel); !ok {
		return sp, fmt.Errorf("%w: unknown channel %q (%v)", ErrBadSpec, sp.Channel, channel.SteppableChannels())
	}
	if sp.Scenario == "" {
		sp.Scenario = "raw"
	}
	if _, ok := kernel.ParseScenario(sp.Scenario); !ok {
		return sp, fmt.Errorf("%w: unknown scenario %q (raw|fullflush|protected)", ErrBadSpec, sp.Scenario)
	}
	if sp.Platform == "" {
		sp.Platform = "haswell"
	}
	if _, ok := hw.PlatformByName(sp.Platform); !ok {
		return sp, fmt.Errorf("%w: unknown platform %q (haswell|sabre)", ErrBadSpec, sp.Platform)
	}
	if sp.Samples < 0 {
		return sp, fmt.Errorf("%w: negative samples %d", ErrBadSpec, sp.Samples)
	}
	if sp.Samples == 0 {
		sp.Samples = 200
	}
	if sp.Seed == nil {
		seed := int64(42)
		sp.Seed = &seed
	}
	if sp.PadMicros < 0 {
		return sp, fmt.Errorf("%w: negative pad_micros %v", ErrBadSpec, sp.PadMicros)
	}
	if !(sp.PadMicros <= MaxPadMicros) {
		return sp, fmt.Errorf("%w: pad_micros %v above %v", ErrBadSpec, sp.PadMicros, float64(MaxPadMicros))
	}
	switch sp.Trace {
	case "":
		sp.Trace = TraceProtocol
	case TraceOff, TraceProtocol, TraceAll:
	default:
		return sp, fmt.Errorf("%w: unknown trace mode %q (off|protocol|all)", ErrBadSpec, sp.Trace)
	}
	return sp, nil
}

// channelSpec builds the channel.Spec the one-shot tpattack path would
// use for the same parameters — determinism depends on this mapping
// being exact.
func (sp Spec) channelSpec(sink *trace.Sink) channel.Spec {
	plat, _ := hw.PlatformByName(sp.Platform)
	sc, _ := kernel.ParseScenario(sp.Scenario)
	return channel.Spec{
		Platform:          plat,
		Scenario:          sc,
		Samples:           sp.Samples,
		Seed:              *sp.Seed,
		PadMicros:         sp.PadMicros,
		DisablePrefetcher: sp.DisablePrefetcher,
		Tracer:            sink,
		ForkWithEvents:    sink != nil,
	}
}

// Event is one streamed session event; the service layer serializes
// Data as the SSE payload under the Type event name.
type Event struct {
	Type string
	Data any
}

// TraceEvent is the JSON form of a trace.Event on the stream.
type TraceEvent struct {
	Time   uint64 `json:"time"`
	Core   uint8  `json:"core"`
	Domain int16  `json:"domain"`
	Kind   string `json:"kind"`
	Unit   string `json:"unit"`
	Addr   uint64 `json:"addr"`
	Arg    uint64 `json:"arg"`
}

// MIUpdate is the per-window live MI estimate on the stream.
type MIUpdate struct {
	N         int     `json:"n"`
	Bits      float64 `json:"bits"`
	Millibits float64 `json:"millibits"`
}

// Closed is the stream's final lifecycle event.
type Closed struct {
	Reason string `json:"reason"`
}

// Verdict is the completed session's MI measurement — the same numbers,
// and the same Summary string, as the one-shot tpattack report for the
// equivalent run.
type Verdict struct {
	MBits   float64 `json:"m_bits"`
	M0Bits  float64 `json:"m0_bits"`
	N       int     `json:"n"`
	Leak    bool    `json:"leak"`
	Summary string  `json:"summary"`
}

// Sample is one collected (symbol, measurement) pair with its global
// index in the session's dataset.
type Sample struct {
	Index  int     `json:"index"`
	Symbol int     `json:"symbol"`
	Value  float64 `json:"value"`
}

// StepResult is the POST .../step response payload.
type StepResult struct {
	Requested int      `json:"requested"`
	Collected int      `json:"collected"`
	Total     int      `json:"total"`
	Target    int      `json:"target"`
	Done      bool     `json:"done"`
	Samples   []Sample `json:"samples"`
	MIBits    float64  `json:"mi_bits"`
	Verdict   *Verdict `json:"verdict,omitempty"`
}

// Session is one live attack: a private machine, the prepared
// sender/receiver pair, and the subscriber fan-out. Simulation runs
// under mu (one step at a time); the publishing path is lock-free for
// emitters (an atomic subscriber-slice snapshot plus non-blocking
// sends), so even the TraceAll firehose costs the simulation two
// atomic loads per event when nobody subscribes.
type Session struct {
	ID  string
	seq uint64

	reg  *Registry
	spec Spec

	createdAt time.Time
	lastTouch atomic.Int64 // unix nanos; created or stepped

	mu         sync.Mutex // serializes stepping and the verdict computation
	x          *channel.Interactive
	last       lastStep    // the last sequenced step (its seq is the highest applied)
	lastResult *StepResult // its result, for idempotent retries

	closed    atomic.Bool
	collected atomic.Int64
	steps     atomic.Uint64
	verdict   atomic.Pointer[Verdict]

	pubMu     sync.Mutex   // subscriber-set mutations
	subs      atomic.Value // []*Subscriber snapshot read by publishers
	published atomic.Uint64
	dropped   atomic.Uint64
}

// newSession boots (snapshot-forks) the machine and prepares the
// attack; the registry assigns the ID at insertion.
func newSession(r *Registry, spec Spec) (*Session, error) {
	var sink *trace.Sink
	if spec.Trace != TraceOff {
		sink = trace.NewSink(r.opts.TraceRing)
	}
	cs := spec.channelSpec(sink)
	c, _ := channel.LookupSteppable(spec.Channel)
	x, err := c.Prepare(cs, spec.Partition)
	if err != nil {
		return nil, err
	}
	s := &Session{reg: r, spec: spec, createdAt: r.opts.Clock(), x: x}
	s.subs.Store([]*Subscriber{})
	s.lastTouch.Store(s.createdAt.UnixNano())
	if sink != nil {
		// Installed after Prepare so a cold boot (the fallback when a
		// snapshot fails to decode) never feeds boot events into the
		// live stream; only stepped simulation publishes.
		protocolOnly := spec.Trace == TraceProtocol
		sink.OnEvent = func(e trace.Event) {
			if protocolOnly && e.Unit != trace.UnitChannel && e.Unit != trace.UnitKernel {
				return
			}
			s.publish(Event{Type: "trace", Data: TraceEvent{
				Time: e.Time, Core: e.Core, Domain: e.Domain,
				Kind: e.Kind.String(), Unit: e.Unit.String(), Addr: e.Addr, Arg: e.Arg,
			}})
		}
	}
	return s, nil
}

// Spec returns the normalized spec the session was created from.
func (s *Session) Spec() Spec { return s.spec }

// Created returns the creation time.
func (s *Session) Created() time.Time { return s.createdAt }

// LastActive returns when the session was last created or stepped.
func (s *Session) LastActive() time.Time {
	return time.Unix(0, s.lastTouch.Load())
}

func (s *Session) touch() { s.lastTouch.Store(s.reg.opts.Clock().UnixNano()) }

// Closed reports whether the session has been deleted, reaped or shut
// down.
func (s *Session) Closed() bool { return s.closed.Load() }

// MaxStepRounds bounds the rounds one step request may ask for — large
// enough for any real attack increment, small enough that a garbage or
// hostile value cannot pin the simulation (and, journaled, would not
// poison every future restore of the session).
const MaxStepRounds = 1 << 20

// Step advances the attack in whole simulation chunks until at least n
// more samples are in (n is clamped to 1..MaxStepRounds), the attack
// completes, or its iteration cap is reached, returning the probe
// latencies it collected and the running MI estimate. On the step that
// completes the target it computes, caches and publishes the final
// verdict — the same mi.Analyze(ds, rand(seed)) the one-shot tpattack
// report path runs.
func (s *Session) Step(n int) (*StepResult, error) { return s.StepSeq(n, 0) }

// StepSeq is Step with a client-supplied sequence number making retries
// idempotent: sequence numbers must strictly increase per session, a
// retry of the last applied sequence returns its cached result without
// advancing the simulation, and an older sequence fails with
// ErrStaleSeq. Sequence 0 opts out (plain Step). The guarantee holds
// across crashes and failovers because the last sequenced step rides
// the journal: restore re-runs it from the chunk it started at.
func (s *Session) StepSeq(n int, seq uint64) (*StepResult, error) {
	n = min(max(n, 1), MaxStepRounds)
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if seq != 0 {
		if seq == s.last.Seq {
			s.touch()
			return s.lastResult, nil
		}
		if seq < s.last.Seq {
			return nil, fmt.Errorf("%w: seq %d already applied (last %d)", ErrStaleSeq, seq, s.last.Seq)
		}
	}
	res, err := s.applyLocked(n, seq)
	if err != nil {
		return nil, err
	}
	s.journalLocked()
	return res, nil
}

// applyLocked is StepSeq after its sequence checks and without the
// journal write: run the step, count it, settle the verdict, and
// remember it as the last sequenced step when seq is nonzero.
func (s *Session) applyLocked(n int, seq uint64) (*StepResult, error) {
	from := s.x.Chunks()
	res, err := s.stepLocked(n)
	if err != nil {
		return nil, err
	}
	s.count(1, res.Collected)
	res.Verdict = s.settleLocked()
	if seq != 0 {
		s.last = lastStep{Seq: seq, Rounds: n, From: from}
		s.lastResult = res
	}
	return res, nil
}

// stepLocked runs the simulation for one step of n rounds, publishes
// the live MI update and builds the step's response, less its verdict.
func (s *Session) stepLocked(n int) (*StepResult, error) {
	s.touch()
	ds := s.x.Dataset()
	before := ds.N()
	samples, err := s.x.StepSamples(n, func() bool { return s.closed.Load() })
	if err != nil {
		return nil, err
	}
	if s.closed.Load() {
		// Deleted or reaped mid-step: the stop hook abandoned the step
		// at a chunk boundary and the session is gone.
		return nil, ErrClosed
	}
	s.touch()
	total := ds.N()
	s.collected.Store(int64(total))

	miBits := mi.Estimate(ds)
	if w := s.reg.opts.MIWindow; w > 0 && len(samples) > 0 && (before/w != total/w || s.x.Done()) {
		s.publish(Event{Type: "mi", Data: MIUpdate{N: total, Bits: miBits, Millibits: mi.Millibits(miBits)}})
	}

	res := &StepResult{
		Requested: n, Collected: len(samples), Total: total,
		Target: s.x.Target(), Done: s.x.Done(), MIBits: miBits,
		Samples: make([]Sample, len(samples)),
	}
	for i, sm := range samples {
		res.Samples[i] = Sample{Index: before + i, Symbol: sm.Input, Value: sm.Output}
	}
	return res, nil
}

// count adds steps and the samples they collected to the session's and
// the registry's counters.
func (s *Session) count(steps uint64, samples int) {
	s.steps.Add(steps)
	s.reg.steps.Add(steps)
	s.reg.samples.Add(uint64(samples))
}

// settleLocked computes, caches and publishes the verdict once the
// attack is done, and returns the verdict (nil while it runs).
func (s *Session) settleLocked() *Verdict {
	if s.x.Done() && s.verdict.Load() == nil {
		r := mi.Analyze(s.x.Dataset(), rand.New(rand.NewSource(*s.spec.Seed)))
		v := &Verdict{MBits: r.M, M0Bits: r.M0, N: r.N, Leak: r.Leak(), Summary: r.String()}
		s.verdict.Store(v)
		s.publish(Event{Type: "done", Data: v})
	}
	return s.verdict.Load()
}

// Status is the GET /v1/sessions/{id} document.
type Status struct {
	ID              string    `json:"id"`
	Spec            Spec      `json:"spec"`
	Created         time.Time `json:"created"`
	LastActive      time.Time `json:"last_active"`
	Collected       int       `json:"collected"`
	Target          int       `json:"target"`
	Done            bool      `json:"done"`
	Steps           uint64    `json:"steps"`
	Subscribers     int       `json:"subscribers"`
	EventsPublished uint64    `json:"events_published"`
	EventsDropped   uint64    `json:"events_dropped"`
	Verdict         *Verdict  `json:"verdict,omitempty"`
}

// Status snapshots the session without touching the simulation lock —
// a long-running step never blocks a status poll.
func (s *Session) Status() Status {
	subs, _ := s.subs.Load().([]*Subscriber)
	v := s.verdict.Load()
	return Status{
		ID:              s.ID,
		Spec:            s.spec,
		Created:         s.createdAt,
		LastActive:      s.LastActive(),
		Collected:       int(s.collected.Load()),
		Target:          s.x.Target(),
		Done:            v != nil,
		Steps:           s.steps.Load(),
		Subscribers:     len(subs),
		EventsPublished: s.published.Load(),
		EventsDropped:   s.dropped.Load(),
		Verdict:         v,
	}
}

// Subscriber is one live event consumer. Events arrive on C (bounded,
// never closed); Done closes when the session ends. A consumer that
// stops reading loses events — Dropped counts them — but never slows
// or blocks the simulation.
type Subscriber struct {
	C    <-chan Event
	Done <-chan struct{}

	s       *Session
	ch      chan Event
	done    chan struct{}
	once    sync.Once
	dropped atomic.Uint64
}

// Dropped returns how many events this subscriber's full buffer lost.
func (sub *Subscriber) Dropped() uint64 { return sub.dropped.Load() }

// Subscribe attaches a bounded live event feed to the session.
func (s *Session) Subscribe() (*Subscriber, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	subs, _ := s.subs.Load().([]*Subscriber)
	if len(subs) >= s.reg.opts.MaxSubscribers {
		return nil, ErrSubscriberLimit
	}
	sub := &Subscriber{
		s:    s,
		ch:   make(chan Event, s.reg.opts.EventBuffer),
		done: make(chan struct{}),
	}
	sub.C, sub.Done = sub.ch, sub.done
	next := make([]*Subscriber, len(subs), len(subs)+1)
	copy(next, subs)
	s.subs.Store(append(next, sub))
	s.reg.subsGauge.Add(1)
	return sub, nil
}

// Close detaches the subscriber (the SSE handler's defer).
func (sub *Subscriber) Close() {
	s := sub.s
	s.pubMu.Lock()
	subs, _ := s.subs.Load().([]*Subscriber)
	next := make([]*Subscriber, 0, len(subs))
	for _, o := range subs {
		if o != sub {
			next = append(next, o)
		}
	}
	s.subs.Store(next)
	s.pubMu.Unlock()
	sub.finish()
}

// finish closes Done exactly once and settles the gauge.
func (sub *Subscriber) finish() {
	sub.once.Do(func() {
		close(sub.done)
		sub.s.reg.subsGauge.Add(-1)
	})
}

// publish fans an event out to every subscriber without blocking: a
// full buffer drops the event for that subscriber and counts the drop.
// Runs on the simulating goroutine (trace hook, step results) and on
// the closing goroutine; both only read the atomic subscriber snapshot.
func (s *Session) publish(ev Event) {
	subs, _ := s.subs.Load().([]*Subscriber)
	if len(subs) == 0 {
		return
	}
	s.published.Add(1)
	s.reg.published.Add(1)
	for _, sub := range subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			s.dropped.Add(1)
			s.reg.dropped.Add(1)
		}
	}
}

// close ends the session: the closed flag halts any in-flight step at
// its next chunk boundary, subscribers get a final closed event, and
// their Done channels close. Returns false if already closed.
func (s *Session) close(reason string) bool {
	if !s.closed.CompareAndSwap(false, true) {
		return false
	}
	s.publish(Event{Type: "closed", Data: Closed{Reason: reason}})
	s.pubMu.Lock()
	subs, _ := s.subs.Load().([]*Subscriber)
	s.subs.Store([]*Subscriber{})
	s.pubMu.Unlock()
	for _, sub := range subs {
		sub.finish()
	}
	return true
}
