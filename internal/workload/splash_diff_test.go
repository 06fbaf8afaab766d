package workload

import (
	"bytes"
	"testing"

	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/trace"
)

// scalarSplash is the oracle for splashProgram.Step: the same blocks
// over the same program state, issued one Env.Load/Env.Store call per
// access instead of one batch walk per block.
type scalarSplash struct{ *splashProgram }

func (p scalarSplash) Step(e *kernel.Env) bool {
	p.beginBlock(e)
	for i, v := range p.addrs {
		if splashStores[i] {
			e.Store(v)
		} else {
			e.Load(v)
		}
	}
	return p.endBlock(e)
}

func scalarOracle(p *splashProgram) kernel.Program { return scalarSplash{p} }

// diffRing holds every event of the short runs below; runSplashDiff
// fails if a ring wrapped.
const diffRing = 1 << 19

// splashOutcome is everything one run exposes: progress at the horizon,
// completion time of a finite run, and each run's final cache-hierarchy
// state (its snapshot encoding, which covers every LRU stamp and
// statistic) and sink contents.
type splashOutcome struct {
	done    int
	elapsed uint64
	state   [2][]byte
	units   [2][trace.NumUnits]trace.UnitStats
	pads    [2][2]uint64
	events  []trace.Event
}

// runSplashDiff runs spec under cfg twice, each on its own sink of ring
// events per core — for horizon cycles with unbounded work, then to
// completion of spec.Blocks — with wrap choosing the program (nil is
// the production block walk).
func runSplashDiff(t *testing.T, spec SplashSpec, cfg SplashConfig, horizon uint64, ring int, wrap func(*splashProgram) kernel.Program) splashOutcome {
	t.Helper()
	var out splashOutcome
	for phase := range out.units {
		sink := trace.NewSink(ring)
		cfg.Tracer = sink
		sp := spec
		if phase == 0 {
			sp.Blocks = 1 << 30
		}
		sys, prog, err := bootSplash(sp, cfg, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if phase == 0 {
			sys.RunCoreFor(0, horizon)
			out.done = prog.doneUnits
		} else {
			for i := 0; i < 1000 && !prog.Finished; i++ {
				sys.RunCoreFor(0, sys.Timeslice())
			}
			if !prog.Finished {
				t.Fatalf("%s did not finish %d blocks", spec.Name, spec.Blocks)
			}
			out.elapsed = prog.Elapsed()
		}
		var w enc.Writer
		sys.K.M.Hier.EncodeState(&w)
		out.state[phase] = w.Bytes()
		for u := range out.units[phase] {
			out.units[phase][u] = sink.UnitSnapshot(trace.Unit(u))
		}
		out.pads[phase] = [2]uint64{sink.PadCount, sink.PadCycles}
		if sink.EventsEnabled() {
			ev := sink.Events()
			if sink.Total() != uint64(len(ev)) {
				t.Fatalf("event ring wrapped: %d emitted, %d retained", sink.Total(), len(ev))
			}
			out.events = append(out.events, ev...)
		}
	}
	return out
}

// TestSplashBlockWalkMatchesScalar holds the batched block walk to the
// scalar Load/Store loop it replaces, for every Splash-2 analogue on
// both platforms, unprotected and protected (time-shared and padded, so
// the horizon crosses domain switches): equal progress and completion
// time, equal final cache-hierarchy state, equal counters-only trace
// units (forked machines), and equal event streams (cold-booted
// machines).
func TestSplashBlockWalkMatchesScalar(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		for _, prot := range []bool{false, true} {
			cfg := SplashConfig{Platform: plat, Scenario: kernel.ScenarioRaw, TimesliceMicros: 40}
			name := plat.Arch + "/raw"
			slices := uint64(3)
			if prot {
				cfg.Scenario = kernel.ScenarioProtected
				cfg.TimeShared = true
				cfg.PadMicros = 30
				name = plat.Arch + "/protected"
				slices = 6 // the benchmark holds every other slice
			}
			horizon := plat.MicrosToCycles(cfg.TimesliceMicros) * slices
			for _, spec := range Splash2() {
				spec.Blocks = 24
				t.Run(name+"/"+spec.Name, func(t *testing.T) {
					for _, ring := range []int{0, diffRing} {
						batch := runSplashDiff(t, spec, cfg, horizon, ring, nil)
						scalar := runSplashDiff(t, spec, cfg, horizon, ring, scalarOracle)
						if batch.done == 0 {
							t.Fatal("no block completed within the horizon")
						}
						if prot && ring == 0 && batch.pads[0][0] == 0 {
							t.Fatal("the horizon crossed no padded domain switch")
						}
						if batch.done != scalar.done || batch.elapsed != scalar.elapsed {
							t.Fatalf("ring %d: batch done=%d elapsed=%d, scalar done=%d elapsed=%d",
								ring, batch.done, batch.elapsed, scalar.done, scalar.elapsed)
						}
						for ph := range batch.state {
							if !bytes.Equal(batch.state[ph], scalar.state[ph]) {
								t.Fatalf("ring %d run %d: final cache-hierarchy state diverges", ring, ph)
							}
						}
						for ph := range batch.units {
							for u := range batch.units[ph] {
								if batch.units[ph][u] != scalar.units[ph][u] {
									t.Fatalf("ring %d run %d: %v counters diverge:\n  batch:  %+v\n  scalar: %+v",
										ring, ph, trace.Unit(u), batch.units[ph][u], scalar.units[ph][u])
								}
							}
						}
						if batch.pads != scalar.pads {
							t.Fatalf("ring %d: pad counters diverge: batch %v scalar %v", ring, batch.pads, scalar.pads)
						}
						if len(batch.events) != len(scalar.events) {
							t.Fatalf("event counts diverge: batch %d, scalar %d", len(batch.events), len(scalar.events))
						}
						for i := range batch.events {
							if batch.events[i] != scalar.events[i] {
								t.Fatalf("event %d diverges:\n  batch:  %v\n  scalar: %v", i, batch.events[i], scalar.events[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestSplashSubPageWorkingSet runs a working set smaller than one page
// through both entry points: it must map one page and make progress
// rather than index an empty buffer.
func TestSplashSubPageWorkingSet(t *testing.T) {
	spec := SplashSpec{Name: "tiny", WorkingSetKiB: 0, StrideLines: 1, ComputePerBlock: 100, Blocks: 20}
	cfg := SplashConfig{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw}
	elapsed, err := RunSplash(spec, cfg)
	if err != nil {
		t.Fatalf("RunSplash: %v", err)
	}
	if elapsed == 0 {
		t.Error("RunSplash: zero elapsed cycles")
	}
	done, err := RunSplashThroughput(spec, cfg, 1_000_000)
	if err != nil {
		t.Fatalf("RunSplashThroughput: %v", err)
	}
	if done == 0 {
		t.Error("RunSplashThroughput: no block completed")
	}
}
