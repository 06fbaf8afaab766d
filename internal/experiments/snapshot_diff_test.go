package experiments

import (
	"crypto/sha256"
	"strings"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// snapshotTestConfig is compact so the full registry passes stay
// affordable; equivalence must hold for any config.
func snapshotTestConfig() Config {
	return Config{Platform: hw.Haswell(), Samples: 25, SplashBlocks: 250, Seed: 42, Table8Slices: 3}
}

func restoreSnapshots(t *testing.T) {
	t.Helper()
	t.Cleanup(snapshot.Reset)
}

// coldConfig returns cfg observed by an event-retaining sink: the
// documented cold path, on which every machine boots cold and every
// memo is skipped.
func coldConfig(cfg Config) Config {
	cfg.Tracer = trace.NewSink(1)
	return cfg
}

// assertStayedCold fails unless the snapshot layer neither captured,
// forked nor served a memoized result since before.
func assertStayedCold(t *testing.T, before snapshot.Counters) {
	t.Helper()
	after := snapshot.Stats()
	if after.Captures != before.Captures || after.Forks != before.Forks || after.MemoHits != before.MemoHits {
		t.Errorf("traced pass was not cold: captures %d->%d, forks %d->%d, memo hits %d->%d",
			before.Captures, after.Captures, before.Forks, after.Forks, before.MemoHits, after.MemoHits)
	}
}

// TestArtefactSnapshotEquivalence is the differential gate for the
// snapshot layer: on both platforms, every registry artefact must
// render byte-identically whether its machines are cold-booted (the
// traced pass) or forked from snapshots. Any bit of simulated state the
// codec missed would diverge timings and change these bytes.
func TestArtefactSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole registry twice per platform")
	}
	if raceEnabled {
		// Byte-equality is a determinism check, not a race check; the
		// snapshot layer's concurrency is race-tested in
		// internal/snapshot and by the plan-digest test's 8-worker run.
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		t.Run(plat.Arch, func(t *testing.T) {
			cfg := snapshotTestConfig()
			cfg.Platform = plat
			renderAll := func(mode string, cfg Config) map[string]string {
				out := map[string]string{}
				for _, a := range Registry() {
					if !a.SupportsPlatform(cfg.Platform) {
						continue
					}
					s, err := a.Output(cfg)
					if err != nil {
						t.Fatalf("%s (%s): %v", a.Name, mode, err)
					}
					out[a.Name] = s
				}
				return out
			}

			snapshot.Reset()
			before := snapshot.Stats()
			cold := renderAll("cold", coldConfig(cfg))
			assertStayedCold(t, before)

			forked := renderAll("forked", cfg)

			if len(cold) == 0 {
				t.Fatal("no artefacts rendered")
			}
			for name, want := range cold {
				if forked[name] != want {
					t.Errorf("%s: forked output differs from cold boot", name)
				}
			}
		})
	}
}

// TestPlanSnapshotDigestAcrossWorkers crosses the two determinism axes:
// the full plan's bytes must not depend on snapshot forking or on the
// worker count — a cold (traced) single-worker run, a forked
// single-worker run and a forked eight-worker run all hash identically.
// The cold run shares one sink across its jobs, which is safe only at
// one worker.
func TestPlanSnapshotDigestAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole artefact plan three times")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	spec := PlanSpec{
		Platforms: []hw.Platform{hw.Haswell()},
		Base:      snapshotTestConfig(),
		All:       true,
	}
	digest := func(spec PlanSpec, parallel int) [32]byte {
		var sb strings.Builder
		if err := RunJobs(Plan(spec), parallel, &sb); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return sha256.Sum256([]byte(sb.String()))
	}
	snapshot.Reset()
	coldSpec := spec
	coldSpec.Base = coldConfig(spec.Base)
	before := snapshot.Stats()
	cold := digest(coldSpec, 1)
	assertStayedCold(t, before)
	if got := digest(spec, 1); got != cold {
		t.Fatal("snapshot plan output differs from cold boot at 1 worker")
	}
	if got := digest(spec, 8); got != cold {
		t.Fatal("snapshot plan output differs from cold boot at 8 workers")
	}
}
