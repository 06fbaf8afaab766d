// Package snapshot lets experiments boot a machine once and fork it
// everywhere. A fully booted system — cache/TLB/predictor arrays,
// prefetcher hidden state, kernel images and clone genealogy, address
// spaces, allocator free lists, DRAM timing state — is frozen into an
// immutable byte snapshot keyed by the digest of its boot shape
// (core.Options.BootShape); every subsequent request for the same boot
// shape decodes a fresh, fully independent copy instead of re-running
// boot and kernel cloning, then applies its own timeslice and switch
// padding (core.System.ApplyRunParams). Snapshots live
// only in the process that captured them: nothing persists them or
// accepts them from outside, so the registry decodes only bytes this
// process encoded, and a state that fails to decode is a codec bug,
// returned as an error rather than hidden behind a cold boot. A
// restarted process captures each configuration again on first use.
//
// Correctness model: the codec (EncodeState/DecodeState across the
// cache, hw, memory, kernel and core layers) captures every bit of
// state that can influence simulation, and the encoding is canonical —
// so `Encode(cold boot) == Encode(fork)` is a machine-checkable
// equivalence, asserted by the differential tests. Byte-identical
// artefact output between snapshot and cold-boot runs follows.
//
// Boot-time observability is handled by counter replay: the capture
// boot runs against a private counters-only sink, and the recorded
// deltas are added to the forking caller's sink, so a fork's counters
// match a cold boot's exactly. Callers whose sink retains events
// (EventsEnabled) fall back to a cold boot transparently — replaying
// events faithfully would tie snapshots to ring capacities and clock
// closures for no experimental gain (event-level runs are inspection
// tooling, not the measured hot path).
//
// Forking cannot be switched off. The cold boots (core.NewSystem,
// kernel.Boot) stay as the event-sink fallback and as the reference the
// differential tests hold forks to; a run that must boot cold and skip
// every memo attaches an event-retaining sink (trace.NewSink(n), n > 0).
package snapshot

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memo"
	"timeprotection/internal/trace"
)

// Counters exposes what the snapshot layer actually did, for tests,
// the -snapshot-stats flag and tpserved's /metricz.
type Counters struct {
	Captures  uint64 `json:"captures"`  // cold boots performed to populate a snapshot
	Forks     uint64 `json:"forks"`     // systems decoded from a snapshot
	Fallbacks uint64 `json:"fallbacks"` // cold boots for an event-retaining sink
	MemoHits  uint64 `json:"memo_hits"` // memoized run results served
}

var counters struct {
	captures, forks, fallbacks, memoHits atomic.Uint64
}

// Stats returns a snapshot of the layer's counters.
func Stats() Counters {
	return Counters{
		Captures:  counters.captures.Load(),
		Forks:     counters.forks.Load(),
		Fallbacks: counters.fallbacks.Load(),
		MemoHits:  counters.memoHits.Load(),
	}
}

// bootDeltas is the observability delta of a boot: every unit counter
// the boot traffic bumped, recorded against a private sink at capture
// time and added to the forking caller's sink.
type bootDeltas struct {
	units     [trace.NumUnits]trace.UnitStats
	padCount  uint64
	padCycles uint64
}

func deltasFrom(s *trace.Sink) bootDeltas {
	var d bootDeltas
	for u := 0; u < int(trace.NumUnits); u++ {
		d.units[u] = s.UnitSnapshot(trace.Unit(u))
	}
	d.padCount = s.PadCount
	d.padCycles = s.PadCycles
	return d
}

func (d *bootDeltas) applyTo(s *trace.Sink) {
	if s == nil {
		return
	}
	for u := 0; u < int(trace.NumUnits); u++ {
		dst := s.Unit(trace.Unit(u))
		src := &d.units[u]
		dst.Accesses += src.Accesses
		dst.Hits += src.Hits
		dst.Misses += src.Misses
		dst.Evictions += src.Evictions
		dst.Writebacks += src.Writebacks
		dst.Flushes += src.Flushes
		dst.FlushedLines += src.FlushedLines
		dst.Issues += src.Issues
		dst.Cycles += src.Cycles
		dst.WritebackCycles += src.WritebackCycles
	}
	s.PadCount += d.padCount
	s.PadCycles += d.padCycles
}

// entry is one populated snapshot in the process-wide registry.
type entry struct {
	deltas *bootDeltas
	state  []byte
}

// registry holds the populated snapshots, bounded like the run memo and
// weighed by their state bytes (RegistryStats). Population runs under
// its singleflight, so concurrent requests for the same configuration
// boot exactly one machine; a failed capture is not retained, and the
// next request boots again.
var registry = memo.New[Key](memoCapacity, func(e *entry) int64 { return int64(len(e.state)) })

// RegistryStats returns the snapshot registry's counters; Bytes is the
// encoded machine state it retains.
func RegistryStats() memo.Stats { return registry.Stats() }

// exact returns w's bytes in a buffer of their exact length, without
// the append slack: the registry retains every captured state for the
// life of the process.
func exact(w *enc.Writer) []byte { return bytes.Clone(w.Bytes()) }

// Reset drops every cached snapshot and memoized run result, so the
// next request for a configuration captures it again. Benchmarks and
// tests use it to time and check the capture path.
func Reset() {
	registry.Reset()
	runs.Reset()
}

// load returns the snapshot for key: from the registry, else by a
// capture cold boot via capture(), which must return the encoded state
// and the boot's observability deltas.
func load(key Key, capture func() (*bootDeltas, []byte, error)) (*entry, error) {
	e, _, err := registry.Do(key, func() (*entry, error) {
		d, state, err := capture()
		if err != nil {
			return nil, err
		}
		counters.captures.Add(1)
		return &entry{deltas: d, state: state}, nil
	})
	return e, err
}

// NewSystem is the drop-in snapshot-aware replacement for
// core.NewSystem: it forks a cached snapshot of the requested
// configuration, booting cold only to populate the cache (or when an
// event-retaining tracer makes forking impossible). The returned system
// is always a fully independent object graph; concurrent callers can
// run their forks in parallel.
func NewSystem(opts core.Options) (*core.System, error) {
	if opts.Tracer.EventsEnabled() {
		counters.fallbacks.Add(1)
		return core.NewSystem(opts)
	}
	return forkSystem(opts)
}

// ForkForStreaming forks a snapshot even when opts.Tracer retains
// events. The fork's event rings start empty — boot-time events are not
// replayable, which is why NewSystem boots such configurations cold —
// while the boot's counter deltas are still applied, exactly as for a
// counters-only fork. The session layer uses it: a live session's
// consumers only ever observe events emitted after the fork, so trading
// the (unobservable) boot events for snapshot-speed session creation is
// sound there, and simulated behaviour is untouched either way — the
// decoded state is the same bytes the differential suite proves
// boot-equivalent.
func ForkForStreaming(opts core.Options) (*core.System, error) {
	return forkSystem(opts)
}

func forkSystem(opts core.Options) (*core.System, error) {
	shape := opts.BootShape()
	key := KeyOf("sys", shape)
	e, err := load(key, func() (*bootDeltas, []byte, error) {
		bootOpts := shape
		bootOpts.Tracer = trace.NewSink(0)
		sys, err := core.NewSystem(bootOpts)
		if err != nil {
			return nil, nil, err
		}
		var w enc.Writer
		if err := sys.EncodeState(&w); err != nil {
			return nil, nil, err
		}
		d := deltasFrom(bootOpts.Tracer)
		return &d, exact(&w), nil
	})
	if err != nil {
		// The capture boot failed; surface the same error a cold boot
		// would produce.
		return nil, err
	}
	sys, err := core.DecodeSystem(opts, enc.NewReader(e.state))
	if err != nil {
		return nil, decodeError(key, err)
	}
	if err := sys.ApplyRunParams(); err != nil {
		return nil, err
	}
	e.deltas.applyTo(opts.Tracer)
	counters.forks.Add(1)
	return sys, nil
}

// decodeError reports a snapshot this process captured that does not
// decode. The registry holds only states encoded in this process, so
// the codec is at fault; booting cold instead would hide that.
func decodeError(key Key, err error) error {
	return fmt.Errorf("snapshot: captured state of %s does not decode: %w", key, err)
}

// BootKernel is the snapshot-aware replacement for kernel.Boot for
// call sites that assemble machines below the core layer. The sink is
// attached to the returned kernel (cold or forked) when non-nil; an
// event-retaining sink forces a cold boot, as in NewSystem.
func BootKernel(plat hw.Platform, cfg kernel.Config, sink *trace.Sink) (*kernel.Kernel, error) {
	if sink.EventsEnabled() {
		counters.fallbacks.Add(1)
		k, err := kernel.Boot(plat, cfg)
		if err == nil {
			k.AttachTracer(sink)
		}
		return k, err
	}
	key := KeyOf("kern", plat, cfg)
	e, err := load(key, func() (*bootDeltas, []byte, error) {
		probe := trace.NewSink(0)
		k, err := kernel.Boot(plat, cfg)
		if err != nil {
			return nil, nil, err
		}
		k.AttachTracer(probe)
		var w enc.Writer
		if err := k.EncodeState(&w); err != nil {
			return nil, nil, err
		}
		d := deltasFrom(probe)
		return &d, exact(&w), nil
	})
	if err != nil {
		return nil, err
	}
	k, err := kernel.DecodeKernel(plat, enc.NewReader(e.state))
	if err != nil {
		return nil, decodeError(key, err)
	}
	if sink != nil {
		k.AttachTracer(sink)
		e.deltas.applyTo(sink)
	}
	counters.forks.Add(1)
	return k, nil
}
