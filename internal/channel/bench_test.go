package channel

import (
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
)

// Micro-benchmark for the probe hot loop — the prime+probe pass every
// channel receiver spends its slices in. One op is one scheduler chunk
// of back-to-back probe passes over an L1-D-sized buffer, and it must
// be allocation-free in steady state (the CI bench smoke gates on
// that). Tracked in BENCH_*.json.

// benchProber runs one full probe pass per Step.
type benchProber struct {
	lines []uint64
	sink  int
}

func (p *benchProber) Step(e *kernel.Env) bool {
	p.sink += Probe(e, p.lines)
	return true
}

func benchmarkProbeLoop(b *testing.B) {
	s := Spec{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw, Samples: 10, Seed: 42}.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		b.Fatal(err)
	}
	pages := s.Platform.Hierarchy.L1D.Size / memory.PageSize
	buf, err := NewProbeBuffer(sys, 0, senderBufBase, pages)
	if err != nil {
		b.Fatal(err)
	}
	prober := &benchProber{lines: buf.AllLines()}
	if _, err := sys.Spawn(0, "prober", 10, prober); err != nil {
		b.Fatal(err)
	}
	chunk := sys.Timeslice()
	sys.RunCoreFor(0, chunk) // warm: first pass pays the cold misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunCoreFor(0, chunk)
	}
}

func BenchmarkProbeLoop(b *testing.B) {
	b.Run("batch", benchmarkProbeLoop)
}
