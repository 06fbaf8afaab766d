package cache

// Snapshot codec: EncodeState/DecodeState freeze and restore the mutable
// microarchitectural state of every unit, so a fully booted machine can
// be forked instead of re-booted (internal/snapshot). Configurations are
// NOT encoded — the decoder runs against a freshly constructed object of
// identical geometry — so the blobs stay small and a geometry change
// shows up as a decode error rather than silent corruption.
//
// The encodings are canonical: two units produce equal bytes if and only
// if they are in identical simulated state. Cache tag arrays exploit the
// invariant that an invalid way always holds invalidTag (only valid ways
// are written), which keeps a freshly booted machine's mostly-empty
// arrays to a few bytes per set.

import (
	"fmt"
	"math/bits"

	"timeprotection/internal/enc"
)

// EncodeState appends the cache's mutable state to w.
func (c *Cache) EncodeState(w *enc.Writer) {
	w.U64(c.pinMask)
	ways := c.cfg.Ways
	for set := range c.meta {
		m := &c.meta[set]
		w.U64(m.lru)
		w.U64(uint64(m.valid))
		w.U64(uint64(m.dirty))
		base := set * ways
		for v := m.valid; v != 0; v &= v - 1 {
			w.U64(c.tags[base+bits.TrailingZeros16(v)])
		}
	}
}

// DecodeState restores state encoded by EncodeState into a cache of the
// same geometry. The running valid-line count is derived from the
// decoded valid masks, never encoded, so the bytes are those of a cache
// without one.
func (c *Cache) DecodeState(r *enc.Reader) error {
	c.pinMask = r.U64()
	ways := c.cfg.Ways
	c.nvalid = 0
	for set := range c.meta {
		m := &c.meta[set]
		m.lru = r.U64()
		m.valid = uint16(r.U64())
		m.dirty = uint16(r.U64())
		base := set * ways
		for i := 0; i < ways; i++ {
			c.tags[base+i] = invalidTag
		}
		for v := m.valid; v != 0; v &= v - 1 {
			c.tags[base+bits.TrailingZeros16(v)] = r.U64()
		}
		c.nvalid += bits.OnesCount16(m.valid)
	}
	return r.Err()
}

// EncodeState appends the TLB's mutable state to w.
func (t *TLB) EncodeState(w *enc.Writer) {
	w.U64(t.tick)
	for i := range t.entries {
		e := &t.entries[i]
		w.Bool(e.valid)
		if e.valid {
			w.U64(e.vpn)
			w.U64(uint64(e.asid))
			w.U64(e.stamp)
			w.Bool(e.global)
		}
	}
}

// DecodeState restores TLB state into a TLB of the same geometry.
func (t *TLB) DecodeState(r *enc.Reader) error {
	t.tick = r.U64()
	for i := range t.entries {
		e := &t.entries[i]
		if r.Bool() {
			e.vpn = r.U64()
			e.asid = uint16(r.U64())
			e.stamp = r.U64()
			e.valid = true
			e.global = r.Bool()
		} else {
			*e = tlbEntry{}
		}
	}
	return r.Err()
}

// EncodeState appends the BTB's mutable state to w.
func (b *BTB) EncodeState(w *enc.Writer) {
	w.U64(b.tick)
	for i := range b.entries {
		e := &b.entries[i]
		w.Bool(e.valid)
		if e.valid {
			w.U64(e.tag)
			w.U64(e.target)
			w.U64(e.stamp)
		}
	}
}

// DecodeState restores BTB state into a BTB of the same geometry.
func (b *BTB) DecodeState(r *enc.Reader) error {
	b.tick = r.U64()
	for i := range b.entries {
		e := &b.entries[i]
		if r.Bool() {
			e.tag = r.U64()
			e.target = r.U64()
			e.stamp = r.U64()
			e.valid = true
		} else {
			*e = btbEntry{}
		}
	}
	return r.Err()
}

// EncodeState appends the history predictor's mutable state to w.
func (b *BHB) EncodeState(w *enc.Writer) {
	w.U64(b.history)
	w.Raw(b.table)
}

// DecodeState restores predictor state into a BHB of the same geometry.
func (b *BHB) DecodeState(r *enc.Reader) error {
	b.history = r.U64()
	tbl := r.Raw()
	if err := r.Err(); err != nil {
		return err
	}
	if len(tbl) != len(b.table) {
		return fmt.Errorf("cache: BHB table length %d, want %d", len(tbl), len(b.table))
	}
	copy(b.table, tbl)
	return nil
}

// EncodeState appends the prefetcher's mutable state — including the
// hidden stream table that no architected flush reaches — to w.
func (p *Prefetcher) EncodeState(w *enc.Writer) {
	w.Bool(p.enabled)
	w.U64(p.valid)
	w.U64(p.confirmed)
	w.U64(p.tick)
	w.Int(p.mru)
	w.U64s(p.pages)
	w.U64s(p.lastLine)
	w.U64s(p.stamps)
	for _, v := range p.count {
		w.I64(int64(v))
	}
	for _, v := range p.dir {
		w.I64(int64(v))
	}
}

// DecodeState restores prefetcher state into one of the same geometry.
func (p *Prefetcher) DecodeState(r *enc.Reader) error {
	p.enabled = r.Bool()
	p.valid = r.U64()
	p.confirmed = r.U64()
	p.tick = r.U64()
	p.mru = r.Int()
	pages := r.U64s()
	lastLine := r.U64s()
	stamps := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	// A stream table with no valid entries round-trips as nil slices.
	if (pages != nil && len(pages) != len(p.pages)) ||
		(lastLine != nil && len(lastLine) != len(p.lastLine)) ||
		(stamps != nil && len(stamps) != len(p.stamps)) {
		return fmt.Errorf("cache: prefetcher stream count mismatch")
	}
	copyOrZero(p.pages, pages)
	copyOrZero(p.lastLine, lastLine)
	copyOrZero(p.stamps, stamps)
	for i := range p.count {
		p.count[i] = int32(r.I64())
	}
	for i := range p.dir {
		p.dir[i] = int8(r.I64())
	}
	return r.Err()
}

func copyOrZero(dst, src []uint64) {
	if src == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, src)
}

// physicalUnits returns the number of physically distinct per-core unit
// instances (SMT siblings alias the same units and must be encoded once).
func (h *Hierarchy) physicalUnits() int {
	if h.cfg.SMTPairs {
		return h.cfg.Cores / 2
	}
	return h.cfg.Cores
}

// EncodeState appends the full hierarchy state to w: every physical
// cache, TLB, predictor and prefetcher, the per-core instruction
// prefetch and CAT state, the jitter RNG, and the DRAM row buffers.
// The tracer sink and memory hook are deliberately excluded — they are
// host-side attachments, re-established by the fork.
func (h *Hierarchy) EncodeState(w *enc.Writer) {
	w.U64(h.rngState)
	w.U64s(h.iPrevLine)
	w.U64s(h.llcMask)
	n := h.physicalUnits()
	for i := 0; i < n; i++ {
		h.l1d[i].EncodeState(w)
		h.l1i[i].EncodeState(w)
		h.itlb[i].EncodeState(w)
		h.dtlb[i].EncodeState(w)
		h.l2tlb[i].EncodeState(w)
		h.btb[i].EncodeState(w)
		h.bhb[i].EncodeState(w)
		h.dpf[i].EncodeState(w)
	}
	nl2 := 1
	if h.cfg.L2Private {
		nl2 = n
	}
	for i := 0; i < nl2; i++ {
		h.l2[i].EncodeState(w)
	}
	if h.l3 != nil {
		h.l3.EncodeState(w)
	}
	if h.dram != nil {
		w.U64s(h.dram.rows)
		for _, o := range h.dram.open {
			w.Bool(o)
		}
	}
}

// DecodeState restores hierarchy state into a hierarchy freshly built
// from the same configuration.
func (h *Hierarchy) DecodeState(r *enc.Reader) error {
	h.rngState = r.U64()
	iPrev := r.U64s()
	llc := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(iPrev) != len(h.iPrevLine) || len(llc) != len(h.llcMask) {
		return fmt.Errorf("cache: hierarchy core count mismatch")
	}
	copy(h.iPrevLine, iPrev)
	copy(h.llcMask, llc)
	n := h.physicalUnits()
	for i := 0; i < n; i++ {
		if err := h.l1d[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.l1i[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.itlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.dtlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.l2tlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.btb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.bhb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.dpf[i].DecodeState(r); err != nil {
			return err
		}
	}
	nl2 := 1
	if h.cfg.L2Private {
		nl2 = n
	}
	for i := 0; i < nl2; i++ {
		if err := h.l2[i].DecodeState(r); err != nil {
			return err
		}
	}
	if h.l3 != nil {
		if err := h.l3.DecodeState(r); err != nil {
			return err
		}
	}
	if h.dram != nil {
		rows := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if rows != nil && len(rows) != len(h.dram.rows) {
			return fmt.Errorf("cache: DRAM bank count mismatch")
		}
		copyOrZero(h.dram.rows, rows)
		for i := range h.dram.open {
			h.dram.open[i] = r.Bool()
		}
	}
	return r.Err()
}
