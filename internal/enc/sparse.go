package enc

// Sparse lists. Most of a booted machine's state is pristine — empty
// cache sets, invalid TLB and BTB entries, predictor counters at their
// reset value — and most of its frame lists are arithmetic progressions.
// Two list forms write such state in proportion to what differs from the
// pristine image, and each has exactly one spelling per list:
//
//   - An index list names ascending slots of a table of n. Each entry is
//     its distance from the previous one (from -1 before the first), and
//     a final distance that lands on n closes the list. A distance of 0
//     would repeat an index and one past n leaves the table; both are
//     invalid, so the indices strictly increase and stay in range.
//   - A run list writes a sequence of values as its length, then as
//     maximal constant-stride runs: each run's length, its first value
//     and, for runs of two or more, the stride (zig-zag, wrapping
//     modulo 2^64). Runs are taken greedily from the left, so only the
//     last run may hold a single value, and a run whose first value
//     continues its predecessor's stride is invalid: it should have
//     been merged.
//
// Callers keep the per-entry payload and its range checks; these
// helpers own the framing.

// Index writes i, the next entry of an index list, as its distance from
// *prev, and advances *prev to i. Start a list with prev = -1 and close
// it with Index(&prev, n), n being the table size.
func (w *Writer) Index(prev *int, i int) {
	w.U64(uint64(i - *prev))
	*prev = i
}

// Index reads the entry after prev of an index list over a table of n
// slots. It returns n when the list closes, and also after any error
// (which it latches), so a decode loop `for i := r.Index(-1, n); i < n;
// i = r.Index(i, n)` always terminates.
func (r *Reader) Index(prev, n int) int {
	d := r.U64()
	switch {
	case r.err != nil:
		return n
	case d == 0:
		r.Failf("index %d repeated: indices must increase", prev)
		return n
	case d > uint64(n-prev):
		r.Failf("index %d+%d beyond the table of %d", prev, d, n)
		return n
	}
	return prev + int(d)
}

// WriteRuns writes vs as a run list.
func WriteRuns[T ~uint64](w *Writer, vs []T) {
	w.U64(uint64(len(vs)))
	for i := 0; i < len(vs); {
		j := i + 1
		if j < len(vs) {
			stride := vs[j] - vs[i]
			for j+1 < len(vs) && vs[j+1]-vs[j] == stride {
				j++
			}
			j++
		}
		w.U64(uint64(j - i))
		w.U64(uint64(vs[i]))
		if j-i > 1 {
			w.I64(int64(vs[i+1] - vs[i]))
		}
		i = j
	}
}

// ReadRuns reads a run list of at most limit values into dst's backing
// array, allocating only when the list outgrows its capacity. limit is
// the caller's bound on the list (a table or frame count): runs expand
// a few bytes into many values, so the byte count cannot bound them,
// and a longer list is rejected before anything is allocated. On error
// it returns dst[:0] with the error latched.
func ReadRuns[T ~uint64](r *Reader, dst []T, limit int) []T {
	n := r.U64()
	if r.err != nil {
		return dst[:0]
	}
	if n > uint64(limit) {
		r.Failf("run list of %d values exceeds its bound %d", n, limit)
		return dst[:0]
	}
	if cap(dst) < int(n) {
		dst = make([]T, n)
	}
	dst = dst[:n]
	var last, stride T
	for i := 0; i < len(dst); {
		l := r.U64()
		start := T(r.U64())
		switch {
		case r.err != nil:
			return dst[:0]
		case l == 0 || l > uint64(len(dst)-i):
			r.Failf("run of %d values at %d of %d", l, i, len(dst))
			return dst[:0]
		case l == 1 && i+1 < len(dst):
			r.Failf("single-value run at %d of %d", i, len(dst))
			return dst[:0]
		case i > 0 && start == last+stride:
			r.Failf("run at %d continues its predecessor's stride", i)
			return dst[:0]
		}
		stride = 0
		if l > 1 {
			stride = T(r.I64())
			if r.err != nil {
				return dst[:0]
			}
		}
		v := start
		for k := uint64(0); k < l; k++ {
			dst[i] = v
			last = v
			v += stride
			i++
		}
	}
	return dst
}
