// Benchmark of the design-decision ablations (tpbench -ablations), timed
// cold: every iteration empties the process-wide snapshot registry and
// run memo (internal/snapshot) with the timer stopped, so each timed run
// boots, captures and simulates from scratch as a fresh tpbench process
// does.
//
// The paper's artefacts (Tables 1-8, Figures 3, 4, 6 and 7) are timed
// within a cold regeneration in a fresh process by perfbench's
// experiments.<artefact>_s (perfbench/README.md); the per-layer
// micro-benchmarks live beside their packages (internal/cache,
// internal/memory, internal/channel, internal/mi).
//
// Run: go test -run '^$' -bench Ablations -benchmem
package main

import (
	"strings"
	"testing"

	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
)

// BenchmarkAblations runs the ablation study on Haswell, the platform
// with every ablated mechanism (its private L2 carries the D6 prefetcher
// rows), and reports each row's channel capacity.
func BenchmarkAblations(b *testing.B) {
	cfg := experiments.Config{Platform: hw.Haswell(), Samples: 100, Seed: 42}
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snapshot.Reset()
		b.StartTimer()
		var err error
		if r, err = experiments.Ablations(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		b.ReportMetric(mi.Millibits(row.Measured.M), strings.ReplaceAll(row.Name, " ", "-")+"-mb")
	}
}
