package channel

import (
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

// memoizable reports whether the spec describes a pure, keyable run:
// with Tracer and ConfigureSystem nil the %+v rendering of the Spec,
// which snapshot.KeyOf digests, is total and deterministic.
func (s Spec) memoizable() bool {
	return s.Tracer == nil && s.ConfigureSystem == nil && !s.ForkWithEvents
}

// memoDataset wraps a dataset-producing run in snapshot.Memo. The memo
// retains a clone at the dataset's exact length, not the collecting
// receiver's slices with their append slack.
func memoDataset(s Spec, kind string, run func() (*mi.Dataset, error)) (*mi.Dataset, error) {
	if !s.memoizable() {
		return run()
	}
	ds, err := snapshot.Memo(snapshot.KeyOf("channel", kind, s), func() (*mi.Dataset, error) {
		ds, err := run()
		if err != nil {
			return nil, err
		}
		return ds.Clone(), nil
	})
	if err != nil {
		return nil, err
	}
	return ds.Clone(), nil
}
