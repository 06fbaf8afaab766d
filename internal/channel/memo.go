package channel

import (
	"fmt"

	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
)

// Run memoization for the channel drivers: an untraced, hook-free
// channel run is a pure function of its Spec (the determinism argument
// of internal/snapshot), so repeated runs — the Raw baselines shared
// across artefacts, or benchmark iterations — are computed once per
// process. Traced runs and runs with a ConfigureSystem hook are never
// memoized: event streams must be re-earned and hooks are opaque.
// Every caller receives an independent Dataset clone, so the shared
// memoized value is never mutated (the Dataset grouping memo is lazy).

// memoizable reports whether the spec describes a pure, keyable run.
func (s Spec) memoizable() bool {
	return s.Tracer == nil && s.ConfigureSystem == nil && !s.ForkWithEvents
}

// memoKey builds the cache key. With Tracer and ConfigureSystem nil the
// %+v rendering of the Spec is total and deterministic.
func (s Spec) memoKey(kind string) string {
	return fmt.Sprintf("channel|%s|%+v", kind, s)
}

// memoDataset wraps a dataset-producing run in snapshot.Memo.
func memoDataset(s Spec, kind string, run func() (*mi.Dataset, error)) (*mi.Dataset, error) {
	if !s.memoizable() {
		return run()
	}
	ds, err := snapshot.Memo(s.memoKey(kind), run)
	if err != nil {
		return nil, err
	}
	return ds.Clone(), nil
}
