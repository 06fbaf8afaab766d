package hw

// Snapshot codec for the machine layer (conventions in
// internal/cache/snapshot.go). A machine is only encodable without an
// attached interconnect model: MemoryBus carries host callbacks that a
// byte encoding cannot capture, and snapshots are taken at the
// post-boot point where no bus is attached yet.

import (
	"fmt"
	"sort"

	"timeprotection/internal/enc"
)

// encodeIntMap writes an int->int map in sorted key order.
func encodeIntMap(w *enc.Writer, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		w.Int(m[k])
	}
}

// decodeIntMap reads an encodeIntMap map, rejecting keys that are not
// strictly ascending (a repeated key would be a second spelling).
func decodeIntMap(r *enc.Reader) map[int]int {
	n := r.Count()
	m := make(map[int]int, n)
	prev := 0
	for i := 0; i < n; i++ {
		k := r.Int()
		if i > 0 && k <= prev {
			r.Failf("map key %d after %d", k, prev)
			return m
		}
		m[k], prev = r.Int(), k
	}
	return m
}

// encodeIntSet writes an int->bool map (true members only, sorted).
func encodeIntSet(w *enc.Writer, m map[int]bool) {
	keys := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	w.Ints(keys)
}

// decodeIntSet reads an encodeIntSet set, rejecting members that are
// not strictly ascending.
func decodeIntSet(r *enc.Reader) map[int]bool {
	keys := r.Ints()
	m := make(map[int]bool, len(keys))
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			r.Failf("set member %d after %d", k, keys[i-1])
			return m
		}
		m[k] = true
	}
	return m
}

// EncodeState appends the interrupt fabric's state to w.
func (ic *IRQController) EncodeState(w *enc.Writer) {
	w.Bool(ic.twoLevel)
	encodeIntMap(w, ic.routing)
	encodeIntSet(w, ic.pending)
	encodeIntSet(w, ic.masked)
	encodeIntSet(w, ic.latched)
}

// DecodeState restores interrupt-fabric state.
func (ic *IRQController) DecodeState(r *enc.Reader) error {
	twoLevel := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if twoLevel != ic.twoLevel {
		return fmt.Errorf("hw: IRQ controller level mismatch")
	}
	ic.routing = decodeIntMap(r)
	ic.pending = decodeIntSet(r)
	ic.masked = decodeIntSet(r)
	ic.latched = decodeIntSet(r)
	return r.Err()
}

// EncodeState appends the machine's full state to w: cores, interrupt
// fabric, frame allocator, device timers and the cache hierarchy. The
// tracer is a host-side attachment and excluded (the snapshot layer
// re-attaches one on fork); an attached memory bus makes the machine
// unencodable.
func (m *Machine) EncodeState(w *enc.Writer) error {
	if m.Bus != nil {
		return fmt.Errorf("hw: cannot encode a machine with an attached memory bus")
	}
	w.Int(len(m.Cores))
	for _, c := range m.Cores {
		w.U64(c.Now)
		w.U64(c.TimerDeadline)
	}
	m.IRQ.EncodeState(w)
	m.Alloc.EncodeState(w)
	w.Int(len(m.timers))
	for _, t := range m.timers {
		w.Int(t.IRQ)
		w.U64(t.FireAt)
		w.Bool(t.Armed)
	}
	m.Hier.EncodeState(w)
	return nil
}

// DecodeState restores machine state into a machine freshly built from
// the same platform. Device timers are recreated as new objects, so any
// host pointers into the encoded machine's timers do not carry over.
func (m *Machine) DecodeState(r *enc.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(m.Cores) {
		return fmt.Errorf("hw: core count mismatch (got %d, want %d)", n, len(m.Cores))
	}
	for _, c := range m.Cores {
		c.Now = r.U64()
		c.TimerDeadline = r.U64()
	}
	if err := m.IRQ.DecodeState(r); err != nil {
		return err
	}
	if err := m.Alloc.DecodeState(r); err != nil {
		return err
	}
	nt := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	m.timers = nil
	for i := 0; i < nt; i++ {
		t := &DeviceTimer{IRQ: r.Int(), FireAt: r.U64(), Armed: r.Bool()}
		m.timers = append(m.timers, t)
	}
	if err := m.Hier.DecodeState(r); err != nil {
		return err
	}
	return r.Err()
}
