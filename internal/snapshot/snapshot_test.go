package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// reset restores the snapshot layer's global state around a test.
func reset(t *testing.T) {
	t.Helper()
	snapshot.Reset()
	t.Cleanup(snapshot.Reset)
}

func encodeSystem(t *testing.T, s *core.System) []byte {
	t.Helper()
	var w enc.Writer
	if err := s.EncodeState(&w); err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	return w.Bytes()
}

func sinksEqual(a, b *trace.Sink) bool {
	for u := 0; u < int(trace.NumUnits); u++ {
		if a.UnitSnapshot(trace.Unit(u)) != b.UnitSnapshot(trace.Unit(u)) {
			return false
		}
	}
	return a.PadCount == b.PadCount && a.PadCycles == b.PadCycles
}

// TestForkMatchesColdBoot is the core differential gate: for every
// scenario and platform shape, the encoded state of a forked system is
// byte-identical to a cold boot's, and boot-counter replay makes a
// forking caller's sink indistinguishable from a cold-booting one's.
func TestForkMatchesColdBoot(t *testing.T) {
	cases := []core.Options{
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioFullFlush},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, Domains: 3, PadMicros: 20},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, StrictDomains: true, SharedColours: 1},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, ColourFraction: 0.5},
		{Platform: hw.Sabre(), Scenario: kernel.ScenarioRaw},
		{Platform: hw.Sabre(), Scenario: kernel.ScenarioProtected, FuzzyClockGrainCycles: 1000},
	}
	for i, opts := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			reset(t)
			coldSink := trace.NewSink(0)
			coldOpts := opts
			coldOpts.Tracer = coldSink
			cold, err := core.NewSystem(coldOpts)
			if err != nil {
				t.Fatalf("cold boot: %v", err)
			}
			forkSink := trace.NewSink(0)
			forkOpts := opts
			forkOpts.Tracer = forkSink
			fork, err := snapshot.NewSystem(forkOpts)
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			if cold == fork {
				t.Fatal("fork returned the captured system, not a copy")
			}
			if !bytes.Equal(encodeSystem(t, cold), encodeSystem(t, fork)) {
				t.Fatal("forked state differs from cold boot")
			}
			if !sinksEqual(coldSink, forkSink) {
				t.Fatal("forked sink counters differ from cold boot")
			}
		})
	}
}

// TestRunParamsMatchColdBoot: the timeslice and the switch padding are
// applied to a fork of the boot shape, not captured with it. For every
// platform, scenario, domain count, timeslice and pad, NewSystem,
// ForkForStreaming and a cold core.NewSystem encode byte-equal states,
// and one capture per boot shape serves every run parameter.
func TestRunParamsMatchColdBoot(t *testing.T) {
	reset(t)
	before := snapshot.Stats()
	shapes := 0
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected} {
			for _, domains := range []int{2, 3} {
				shapes++
				for _, timeslice := range []float64{0, 100, 2000} {
					for _, pad := range []float64{0, 12, 25, 58.8, 62.5} {
						opts := core.Options{Platform: plat, Scenario: sc, Domains: domains, TimesliceMicros: timeslice, PadMicros: pad}
						name := fmt.Sprintf("%s/%v/%d domains/timeslice %v/pad %v", plat.Name, sc, domains, timeslice, pad)
						cold, err := core.NewSystem(opts)
						if err != nil {
							t.Fatalf("%s: cold boot: %v", name, err)
						}
						want := encodeSystem(t, cold)
						for _, fork := range []struct {
							name string
							fn   func(core.Options) (*core.System, error)
						}{{"NewSystem", snapshot.NewSystem}, {"ForkForStreaming", snapshot.ForkForStreaming}} {
							sys, err := fork.fn(opts)
							if err != nil {
								t.Fatalf("%s: %s: %v", name, fork.name, err)
							}
							if !bytes.Equal(want, encodeSystem(t, sys)) {
								t.Fatalf("%s: %s state differs from a cold boot", name, fork.name)
							}
							if sys.Opts != cold.Opts {
								t.Fatalf("%s: %s recorded options %+v, a cold boot %+v", name, fork.name, sys.Opts, cold.Opts)
							}
						}
					}
				}
			}
		}
	}
	if got := snapshot.Stats().Captures - before.Captures; got != uint64(shapes) {
		t.Fatalf("%d captures for %d boot shapes", got, shapes)
	}
}

// TestForksAreIndependent: mutating one fork must not affect another.
func TestForksAreIndependent(t *testing.T) {
	reset(t)
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected}
	a, err := snapshot.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := encodeSystem(t, b)
	// Run simulated work on fork a only.
	if _, err := a.MapBuffer(0, 0x1000_0000, 4); err != nil {
		t.Fatal(err)
	}
	a.RunCoreFor(0, a.Timeslice())
	if !bytes.Equal(ref, encodeSystem(t, b)) {
		t.Fatal("running fork a mutated fork b")
	}
	if bytes.Equal(ref, encodeSystem(t, a)) {
		t.Fatal("fork a did not change after running work (test is vacuous)")
	}
}

// TestKernelForkMatchesColdBoot covers the bare-kernel path.
func TestKernelForkMatchesColdBoot(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		t.Run(plat.Name, func(t *testing.T) {
			reset(t)
			cfg := kernel.Config{Scenario: kernel.ScenarioProtected, CloneSupport: true}
			coldSink := trace.NewSink(0)
			cold, err := kernel.Boot(plat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold.AttachTracer(coldSink)
			forkSink := trace.NewSink(0)
			fork, err := snapshot.BootKernel(plat, cfg, forkSink)
			if err != nil {
				t.Fatal(err)
			}
			var wc, wf enc.Writer
			if err := cold.EncodeState(&wc); err != nil {
				t.Fatal(err)
			}
			if err := fork.EncodeState(&wf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wc.Bytes(), wf.Bytes()) {
				t.Fatal("forked kernel state differs from cold boot")
			}
			if !sinksEqual(coldSink, forkSink) {
				t.Fatal("forked kernel sink differs from cold boot")
			}
		})
	}
}

// TestEventTracerFallsBack: an event-retaining sink cannot be served by
// replay, so NewSystem and BootKernel must cold-boot (and still work).
func TestEventTracerFallsBack(t *testing.T) {
	reset(t)
	before := snapshot.Stats()
	sink := trace.NewSink(64)
	sys, err := snapshot.NewSystem(core.Options{Platform: hw.Haswell(), Tracer: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
	after := snapshot.Stats()
	if after.Fallbacks != before.Fallbacks+1 {
		t.Fatal("event tracer did not fall back to cold boot")
	}
	if after.Forks != before.Forks {
		t.Fatal("event tracer produced a fork")
	}
	k, err := snapshot.BootKernel(hw.Haswell(), kernel.Config{Scenario: kernel.ScenarioRaw}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if k.Tracer != sink {
		t.Fatal("BootKernel did not attach the event tracer")
	}
	if got := snapshot.Stats(); got.Fallbacks != after.Fallbacks+1 || got.Forks != after.Forks || got.Captures != after.Captures {
		t.Fatalf("BootKernel with an event tracer did not boot cold: %+v -> %+v", after, got)
	}
}

func TestMemo(t *testing.T) {
	reset(t)
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := snapshot.Memo(snapshot.KeyOf("answer"), func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("Memo = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	// Errors are not cached: the next call retries.
	boom := errors.New("boom")
	fails := 0
	if _, err := snapshot.Memo(snapshot.KeyOf("fails"), func() (int, error) { fails++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v, err := snapshot.Memo(snapshot.KeyOf("fails"), func() (int, error) { fails++; return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if fails != 2 {
		t.Fatalf("failed compute ran %d times, want 2", fails)
	}
}

// TestMemoSingleflight: concurrent callers for one key share a single
// computation.
func TestMemoSingleflight(t *testing.T) {
	reset(t)
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := snapshot.Memo(snapshot.KeyOf("flight"), func() (int, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return 99, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
}

// TestMemoPanicLeavesKeyRetryable: a compute that panicked used to
// leave its key registered with a WaitGroup nobody would release, so
// the next Memo call for that key — the service retrying a recovered
// runner panic, say — blocked forever and held its pool worker. The
// panic must leave the key free: the next call computes again.
func TestMemoPanicLeavesKeyRetryable(t *testing.T) {
	reset(t)
	func() {
		defer func() { recover() }()
		if _, err := snapshot.Memo(snapshot.KeyOf("panics"), func() (int, error) { panic("boom") }); err == nil {
			t.Error("panicking compute returned no error")
		}
	}()
	type result struct {
		v   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := snapshot.Memo(snapshot.KeyOf("panics"), func() (int, error) { return 5, nil })
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		if r.v != 5 || r.err != nil {
			t.Fatalf("Memo after a panic = %d, %v; want a recomputed 5", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Memo after a panicking compute still blocked — key wedged")
	}
}

// TestConcurrentForks: many goroutines requesting the same system must
// capture once and all receive independent, equal-state forks.
func TestConcurrentForks(t *testing.T) {
	reset(t)
	before := snapshot.Stats()
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected}
	const n = 8
	systems := make([]*core.System, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := snapshot.NewSystem(opts)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			systems[i] = s
			// Exercise the fork concurrently: forks must be fully
			// independent object graphs.
			s.RunCoreFor(0, s.Timeslice())
		}(i)
	}
	wg.Wait()
	if got := snapshot.Stats().Captures - before.Captures; got != 1 {
		t.Fatalf("captured %d times for one key, want 1", got)
	}
	ref := encodeSystem(t, systems[0])
	for i := 1; i < n; i++ {
		if !bytes.Equal(ref, encodeSystem(t, systems[i])) {
			t.Fatalf("fork %d diverged after identical work", i)
		}
	}
}
