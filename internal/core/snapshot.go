package core

// Snapshot codec for a fully assembled System (conventions in
// internal/cache/snapshot.go). EncodeState freezes the kernel — machine
// included — plus every domain's pool, process and address space;
// DecodeSystem rebuilds an independent object graph in exactly that
// state. The encoding is canonical, so it doubles as a state digest:
// the differential tests assert Encode(cold boot) == Encode(fork).

import (
	"fmt"

	"timeprotection/internal/enc"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
)

// EncodeState appends the system's full state to w. Options are NOT part
// of the encoding — the forking caller supplies them again (they key the
// snapshot), and host attachments like the tracer are re-established on
// decode. Encoding fails past the quiescent post-boot point (see
// kernel.Kernel.EncodeState).
func (s *System) EncodeState(w *enc.Writer) error {
	if err := s.K.EncodeState(w); err != nil {
		return err
	}
	w.Bool(s.SharedPool != nil)
	if s.SharedPool != nil {
		s.SharedPool.EncodeState(w)
	}
	w.Int(len(s.Domains))
	for _, d := range s.Domains {
		if d.Proc.Pool != d.Pool {
			return fmt.Errorf("core: domain %d process pool diverged from domain pool", d.ID)
		}
		if d.Proc.Image != d.Image {
			return fmt.Errorf("core: domain %d process image diverged from domain image", d.ID)
		}
		w.Int(d.ID)
		d.Pool.EncodeState(w)
		if err := d.Proc.EncodeState(w); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSystem reconstructs a system from EncodeState output. opts must
// be the options the encoded system was built with (minus the tracer,
// which may differ): the platform drives machine reconstruction, and the
// resolved options are recorded on the returned system exactly as
// NewSystem would record them. A non-nil opts.Tracer is attached; note
// that boot-time counters are not replayed into it here — that is the
// snapshot layer's job, which knows the deltas.
func DecodeSystem(opts Options, r *enc.Reader) (*System, error) {
	opts = opts.withDefaults()
	k, err := kernel.DecodeKernel(opts.Platform, r)
	if err != nil {
		return nil, err
	}
	if opts.Tracer != nil {
		k.AttachTracer(opts.Tracer)
	}
	s := &System{K: k, Opts: opts}
	if r.Bool() {
		if s.SharedPool, err = memory.DecodePool(k.M.Alloc, r); err != nil {
			return nil, err
		}
	}
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id := r.Int()
		pool, err := memory.DecodePool(k.M.Alloc, r)
		if err != nil {
			return nil, err
		}
		proc, err := k.DecodeProcess(pool, r)
		if err != nil {
			return nil, err
		}
		s.Domains = append(s.Domains, &Domain{ID: id, Proc: proc, Pool: pool, Image: proc.Image})
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after system snapshot", r.Remaining())
	}
	return s, r.Err()
}
