// Package snapshot lets experiments boot a machine once and fork it
// everywhere. A fully booted system — cache/TLB/predictor arrays,
// prefetcher hidden state, kernel images and clone genealogy, address
// spaces, allocator free lists, DRAM timing state — is frozen into an
// immutable byte snapshot keyed by its configuration; every subsequent
// request for the same configuration decodes a fresh, fully independent
// copy instead of re-running boot and kernel cloning. Snapshots also
// serialize through an attached artefact store, so separate processes
// (tpserved, tpbench -resume) skip boot across restarts.
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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memo"
	"timeprotection/internal/trace"
)

// schemaVersion is bumped whenever any layer's EncodeState format
// changes; persisted snapshots with a different version decode as
// misses and are re-captured.
const schemaVersion = 2

var magic = [6]byte{'T', 'P', 'S', 'N', 'A', 'P'}

// Snapshot kinds.
const (
	kindSystem = 1 // core.System
	kindKernel = 2 // bare kernel.Kernel
)

// Store is the persistence hook: a durable byte store such as
// *store.Store. Get misses are recomputed; Put errors are ignored
// (persistence is an optimisation, never a correctness dependency).
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, body []byte) error
}

var (
	storeMu  sync.Mutex
	attached Store
)

// AttachStore wires a durable store into the snapshot cache (nil
// detaches). Snapshots are written under content-addressed keys
// derived from the configuration key and schema version.
func AttachStore(s Store) {
	storeMu.Lock()
	attached = s
	storeMu.Unlock()
}

func currentStore() Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	return attached
}

// Counters exposes what the snapshot layer actually did, for tests,
// the -snapshot-stats flag and tpserved's /metricz.
type Counters struct {
	Captures  uint64 `json:"captures"`  // cold boots performed to populate a snapshot
	Forks     uint64 `json:"forks"`     // systems decoded from a snapshot
	Fallbacks uint64 `json:"fallbacks"` // cold boots because forking was impossible
	DiskHits  uint64 `json:"disk_hits"` // snapshots loaded from the attached store
	MemoHits  uint64 `json:"memo_hits"` // memoized run results served
}

var counters struct {
	captures, forks, fallbacks, diskHits, memoHits atomic.Uint64
}

// Stats returns a snapshot of the layer's counters.
func Stats() Counters {
	return Counters{
		Captures:  counters.captures.Load(),
		Forks:     counters.forks.Load(),
		Fallbacks: counters.fallbacks.Load(),
		DiskHits:  counters.diskHits.Load(),
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

func (d *bootDeltas) encode(w *enc.Writer) {
	for u := range d.units {
		s := &d.units[u]
		for _, v := range [...]uint64{
			s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks,
			s.Flushes, s.FlushedLines, s.Issues, s.Cycles, s.WritebackCycles,
		} {
			w.U64(v)
		}
	}
	w.U64(d.padCount)
	w.U64(d.padCycles)
}

func (d *bootDeltas) decode(r *enc.Reader) error {
	for u := range d.units {
		s := &d.units[u]
		for _, p := range [...]*uint64{
			&s.Accesses, &s.Hits, &s.Misses, &s.Evictions, &s.Writebacks,
			&s.Flushes, &s.FlushedLines, &s.Issues, &s.Cycles, &s.WritebackCycles,
		} {
			*p = r.U64()
		}
	}
	d.padCount = r.U64()
	d.padCycles = r.U64()
	return r.Err()
}

// blob assembles header + deltas + state into the persisted form.
func blob(kind byte, d *bootDeltas, state []byte) []byte {
	var w enc.Writer
	for _, b := range magic {
		w.U64(uint64(b))
	}
	w.U64(schemaVersion)
	w.U64(uint64(kind))
	d.encode(&w)
	w.Raw(state)
	return w.Bytes()
}

// parseBlob validates the header and splits a persisted snapshot.
func parseBlob(kind byte, b []byte) (*bootDeltas, []byte, error) {
	r := enc.NewReader(b)
	for _, want := range magic {
		if byte(r.U64()) != want {
			return nil, nil, fmt.Errorf("snapshot: bad magic")
		}
	}
	if v := r.U64(); v != schemaVersion {
		return nil, nil, fmt.Errorf("snapshot: schema %d, want %d", v, schemaVersion)
	}
	if k := byte(r.U64()); k != kind {
		return nil, nil, fmt.Errorf("snapshot: kind %d, want %d", k, kind)
	}
	var d bootDeltas
	if err := d.decode(r); err != nil {
		return nil, nil, err
	}
	state := r.Raw()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return &d, state, nil
}

// storeKey derives a durable-store key from the configuration key.
func storeKey(key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("snapshot|v%d|%s", schemaVersion, key)))
	return "snap-" + hex.EncodeToString(sum[:])[:56]
}

// entry is one populated snapshot in the process-wide registry.
type entry struct {
	deltas *bootDeltas
	state  []byte
}

// registry holds the populated snapshots, bounded like the run memo.
// Population runs under its singleflight, so concurrent requests for
// the same configuration boot exactly one machine; a failed capture is
// not retained, and the next request boots again.
var registry = memo.New[string, *entry](memoCapacity)

// Reset drops every cached snapshot and memoized run result, so the
// next request captures or loads from the attached store again (which
// Reset does not touch). Benchmarks and tests use it to time and check
// those paths.
func Reset() {
	registry.Reset()
	runs.Reset()
}

// load returns the snapshot for key: from the registry, else from the
// attached store when a valid persisted snapshot exists, otherwise by a
// capture cold boot via capture(), which must return the encoded state
// and the boot's observability deltas.
func load(kind byte, key string, capture func() (*bootDeltas, []byte, error)) (*entry, error) {
	e, _, err := registry.Do(key, func() (*entry, error) {
		sk := storeKey(key)
		if st := currentStore(); st != nil {
			if b, ok := st.Get(sk); ok {
				if d, state, err := parseBlob(kind, b); err == nil {
					counters.diskHits.Add(1)
					return &entry{deltas: d, state: state}, nil
				}
			}
		}
		d, state, err := capture()
		if err != nil {
			return nil, err
		}
		counters.captures.Add(1)
		if st := currentStore(); st != nil {
			_ = st.Put(sk, blob(kind, d, state))
		}
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
	e, err := load(kindSystem, SystemKey(opts), func() (*bootDeltas, []byte, error) {
		bootOpts := opts
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
		return &d, w.Bytes(), nil
	})
	if err != nil {
		// The capture boot failed; surface the same error a cold boot
		// would produce.
		return nil, err
	}
	sys, err := core.DecodeSystem(opts, enc.NewReader(e.state))
	if err != nil {
		// A snapshot that no longer decodes (schema drift within a
		// process should be impossible, but stay safe): boot cold.
		counters.fallbacks.Add(1)
		return core.NewSystem(opts)
	}
	e.deltas.applyTo(opts.Tracer)
	counters.forks.Add(1)
	return sys, nil
}

// BootKernel is the snapshot-aware replacement for kernel.Boot for
// call sites that assemble machines below the core layer. The sink is
// attached to the returned kernel (cold or forked) when non-nil; an
// event-retaining sink forces a cold boot, as in NewSystem.
func BootKernel(plat hw.Platform, cfg kernel.Config, sink *trace.Sink) (*kernel.Kernel, error) {
	coldBoot := func() (*kernel.Kernel, error) {
		k, err := kernel.Boot(plat, cfg)
		if err == nil && sink != nil {
			k.AttachTracer(sink)
		}
		return k, err
	}
	if sink.EventsEnabled() {
		counters.fallbacks.Add(1)
		return coldBoot()
	}
	key := KernelKey(plat, cfg)
	e, err := load(kindKernel, key, func() (*bootDeltas, []byte, error) {
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
		return &d, w.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	k, err := kernel.DecodeKernel(plat, enc.NewReader(e.state))
	if err != nil {
		counters.fallbacks.Add(1)
		return coldBoot()
	}
	if sink != nil {
		k.AttachTracer(sink)
		e.deltas.applyTo(sink)
	}
	counters.forks.Add(1)
	return k, nil
}
