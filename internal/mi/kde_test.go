package mi

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// kdeTolerance is the satellite requirement: the binned estimator must
// agree with the naive per-sample sum to within 1e-3 bits.
const kdeTolerance = 1e-3

func assertAgreement(t *testing.T, name string, d *Dataset) {
	t.Helper()
	fast := Estimate(d)
	naive := estimateNaive(d)
	if diff := math.Abs(fast - naive); diff > kdeTolerance {
		t.Errorf("%s: binned %.6f vs naive %.6f bits (diff %.2e > %.0e)",
			name, fast, naive, diff, kdeTolerance)
	}
}

func TestBinnedMatchesNaiveGaussians(t *testing.T) {
	cases := []struct {
		name  string
		means []float64
		std   float64
		n     int
	}{
		{"separated", []float64{0, 100, 200, 300}, 1, 800},
		{"overlapping", []float64{0, 10}, 8, 800},
		{"nearly-degenerate", []float64{50, 50.01}, 0.001, 400},
		{"wide-bandwidth", []float64{0, 5}, 40, 500},
		{"mixed-scales", []float64{0, 1, 300}, 0.5, 600},
	}
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		assertAgreement(t, c.name, gaussianDataset(rng, c.n, c.means, c.std))
	}
}

func TestBinnedMatchesNaiveDiscreteOutputs(t *testing.T) {
	// Integer-valued outputs (cache miss counts) drive the bandwidth to
	// its floor — the regime where the fine grid refines hardest.
	rng := rand.New(rand.NewSource(200))
	d := &Dataset{}
	for i := 0; i < 600; i++ {
		in := rng.Intn(4)
		d.Add(in, float64(20+5*in+rng.Intn(3)))
	}
	assertAgreement(t, "discrete", d)
}

func TestBinnedConstantClasses(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		d.Add(0, 10)
		d.Add(1, 20)
	}
	assertAgreement(t, "constant-classes", d)
	if m := Estimate(d); m < 0.9 {
		t.Errorf("deterministic binary channel M = %.3f, want ~1", m)
	}
}

func TestShuffleBoundGOMAXPROCSInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	d := gaussianDataset(rng, 400, []float64{0, 20, 40}, 10)
	run := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return ShuffleBound(d, 100, rand.New(rand.NewSource(9)))
	}
	m1 := run(1)
	m8 := run(8)
	if m1 != m8 {
		t.Fatalf("ShuffleBound differs across GOMAXPROCS: %v (1 proc) vs %v (8 procs)", m1, m8)
	}
}

func TestShuffleBoundDependsOnlyOnRNGState(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	d := gaussianDataset(rng, 200, []float64{0, 15}, 6)
	a := ShuffleBound(d, 50, rand.New(rand.NewSource(4)))
	b := ShuffleBound(d, 50, rand.New(rand.NewSource(4)))
	if a != b {
		t.Fatalf("same rng state gave different bounds: %v vs %v", a, b)
	}
	c := ShuffleBound(d, 50, rand.New(rand.NewSource(5)))
	if a == c {
		t.Fatal("different rng seeds should give different shuffle bounds")
	}
}

func TestGroupingMemoInvalidatedByAdd(t *testing.T) {
	d := &Dataset{}
	d.Add(0, 1)
	d.Add(1, 2)
	if got := d.Inputs(); len(got) != 2 {
		t.Fatalf("inputs = %v", got)
	}
	d.Add(2, 3)
	if got := d.Inputs(); len(got) != 3 {
		t.Fatalf("memo not invalidated by Add: inputs = %v", got)
	}
	if got := d.OutputsFor(2); len(got) != 1 || got[0] != 3 {
		t.Fatalf("OutputsFor(2) = %v", got)
	}
	// The returned slice must be a copy, not a view of the memo.
	got := d.OutputsFor(0)
	got[0] = 99
	if again := d.OutputsFor(0); again[0] != 1 {
		t.Fatalf("OutputsFor returned an aliased slice: %v", again)
	}
}

func benchDataset() *Dataset {
	rng := rand.New(rand.NewSource(42))
	return gaussianDataset(rng, 400, []float64{0, 30, 60, 90}, 12)
}

// BenchmarkEstimateBinned times the estimate of a dataset seen for the
// first time: every iteration wraps the same samples in a fresh
// Dataset, so the grouping memo is built, and counted in B/op, once per
// op. A reused Dataset would build it once per run, and B/op would
// then follow b.N and so the host's speed. One estimate before the
// timer fills the estimator pool, as the first estimate of any run
// does, so the pooled scratch is no one-off in B/op either.
func BenchmarkEstimateBinned(b *testing.B) {
	d := benchDataset()
	Estimate(&Dataset{inputs: d.inputs, outputs: d.outputs})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Estimate(&Dataset{inputs: d.inputs, outputs: d.outputs})
	}
}

func BenchmarkEstimateNaive(b *testing.B) {
	d := benchDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		estimateNaive(d)
	}
}

func BenchmarkShuffleBound(b *testing.B) {
	d := benchDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShuffleBound(d, 100, rand.New(rand.NewSource(7)))
	}
}
