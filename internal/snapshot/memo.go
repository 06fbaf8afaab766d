package snapshot

import "timeprotection/internal/memo"

// Run memoization rides on the same determinism argument as machine
// forking: an experiment run is a pure function of its configuration,
// so when no event-retaining tracer is watching, identical runs can be
// computed once and the result shared. Callers must treat memoized
// values as immutable.

// memoCapacity bounds the run memo and the snapshot registry, in
// entries: far above the ~290 run keys and 35 snapshots of a two-seed
// `tpbench -all`, it keeps a tpserved serving every seed finite.
const memoCapacity = 1024

var runs = memo.New[string, any](memoCapacity)

// Memo returns the memoized result for key, computing it via compute on
// first use. Concurrent callers for the same key block on a single
// in-flight computation (singleflight). Errors — a panic in compute
// included, which becomes a memo.ErrPanic error — reach every waiter
// but are not retained: the next caller computes again. Callers decide
// what is memoizable: every caller in this module computes directly
// when a tracer observes the run, so traced runs re-earn their events
// and counters.
func Memo[T any](key string, compute func() (T, error)) (T, error) {
	v, hit, err := runs.Do(key, func() (any, error) { return compute() })
	if hit {
		counters.memoHits.Add(1)
	}
	t, _ := v.(T)
	return t, err
}

// MemoStats returns the run memo's retained-result counters.
func MemoStats() memo.Stats { return runs.Stats() }
