package channel

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/trace"
)

// Scalar oracles for the probe primitives: the one-Env-call-per-line
// loops the batched bodies stand in for. Only the differential test
// below calls them.

func scalarProbe(e *kernel.Env, lines []uint64) int {
	t0 := e.Now()
	for _, v := range lines {
		e.Load(v)
	}
	return int(e.Now() - t0)
}

func scalarProbeMisses(e *kernel.Env, lines []uint64, threshold int) int {
	misses := 0
	for _, v := range lines {
		t0 := e.Now()
		e.Load(v)
		if int(e.Now()-t0) > threshold {
			misses++
		}
	}
	return misses
}

func scalarProbeExec(e *kernel.Env, lines []uint64) int {
	t0 := e.Now()
	for _, v := range lines {
		e.Exec(v)
	}
	return int(e.Now() - t0)
}

func scalarStoreLines(e *kernel.Env, lines []uint64) {
	for _, v := range lines {
		e.Store(v)
	}
}

// primitives is one implementation of the four probe primitives.
type primitives struct {
	probe       func(*kernel.Env, []uint64) int
	probeMisses func(*kernel.Env, []uint64, int) int
	probeExec   func(*kernel.Env, []uint64) int
	storeLines  func(*kernel.Env, []uint64)
}

var (
	batchedPrims = primitives{Probe, ProbeMisses, ProbeExec, StoreLines}
	scalarPrims  = primitives{scalarProbe, scalarProbeMisses, scalarProbeExec, scalarStoreLines}
)

// script is a program issuing one call per Step, cycling through its
// calls, and logging each call's result and the precise core clock
// after it.
type script struct {
	calls []func(*kernel.Env) int
	next  int
	log   []uint64
}

func (p *script) Step(e *kernel.Env) bool {
	r := p.calls[p.next%len(p.calls)](e)
	p.next++
	p.log = append(p.log, uint64(r), e.PreciseNow())
	return true
}

// symbolCalls returns the sender's four symbol calls: symbol k touches
// the first k/3 of lines, as every cache sender encodes.
func symbolCalls(lines []uint64, touch func(*kernel.Env, []uint64) int) []func(*kernel.Env) int {
	var calls []func(*kernel.Env) int
	for sym := 0; sym < 4; sym++ {
		n := len(lines) * sym / 3
		calls = append(calls, func(e *kernel.Env) int { return touch(e, lines[:n]) })
	}
	return calls
}

// primCase is one differential scenario: setup builds the programs of
// domains 0 and 1 on a freshly forked system, from the lines the real
// channel receivers and senders build, calling the primitives through
// p; cores run for at least minSlices time slices and until every
// scripted domain has made minCalls calls.
type primCase struct {
	name  string
	spec  Spec
	cores []int
	// misses marks domain 1's results as miss counts, which must not
	// all be zero.
	misses bool
	setup  func(sys *core.System, s Spec, p primitives) ([2]kernel.Program, error)
}

func primCases() []primCase {
	var cases []primCase
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioProtected} {
			for _, res := range Resources(plat) {
				if res == BTB || res == BHB {
					continue // branch predictors take no probe lines
				}
				grains := []uint64{0}
				if res == L1D && sc == kernel.ScenarioRaw {
					grains = append(grains, 128) // the fuzzy-time study's channel
				}
				for _, grain := range grains {
					cases = append(cases, primCase{
						name:  fmt.Sprintf("%s/%v/%v/grain%d", plat.Arch, sc, res, grain),
						spec:  Spec{Platform: plat, Scenario: sc, TimesliceMicros: 10, FuzzyGrainCycles: grain},
						cores: []int{0},
						setup: func(sys *core.System, _ Spec, p primitives) ([2]kernel.Program, error) {
							sLines, rLines, err := intraCoreLines(sys, res)
							if err != nil {
								return [2]kernel.Program{}, err
							}
							touch := p.probe
							if res == L1I {
								touch = p.probeExec
							}
							rLinesRev := reversed(rLines)
							recv := []func(*kernel.Env) int{
								func(e *kernel.Env) int { return touch(e, rLinesRev) },
								func(e *kernel.Env) int { return touch(e, rLines) },
							}
							return [2]kernel.Program{&script{calls: symbolCalls(sLines, touch)}, &script{calls: recv}}, nil
						},
					})
				}
			}
		}
		for _, grain := range []uint64{0, 128} {
			cases = append(cases, primCase{
				name:   fmt.Sprintf("%s/llc-spy/grain%d", plat.Arch, grain),
				spec:   Spec{Platform: plat, Scenario: kernel.ScenarioRaw, TimesliceMicros: 10, FuzzyGrainCycles: grain},
				cores:  []int{0, 1},
				misses: true,
				setup: func(sys *core.System, s Spec, p primitives) ([2]kernel.Program, error) {
					victim, spy, _, err := newLLCSideChannel(sys, s)
					if err != nil {
						return [2]kernel.Program{}, err
					}
					// Besides the spy's own threshold, count at the bare
					// L1+L2+L3 hit latency: on the x86 model that is the
					// exact cost of an LLC hit, so the strict comparison
					// is exercised at its boundary.
					h := plat.Hierarchy
					var calls []func(*kernel.Env) int
					for _, threshold := range []int{spy.threshold, h.L1D.HitLatency + h.L2.HitLatency + h.L3.HitLatency} {
						calls = append(calls, func(e *kernel.Env) int {
							m := p.probeMisses(e, spy.lines, threshold)
							e.Spin(spy.gap)
							return m
						})
					}
					return [2]kernel.Program{victim, &script{calls: calls}}, nil
				},
			})
		}
		cases = append(cases, primCase{
			name:  plat.Arch + "/flush-sender",
			spec:  Spec{Platform: plat, Scenario: kernel.ScenarioProtected, TimesliceMicros: 10},
			cores: []int{0},
			setup: func(sys *core.System, _ Spec, p primitives) ([2]kernel.Program, error) {
				sLines, err := flushSenderLines(sys)
				if err != nil {
					return [2]kernel.Program{}, err
				}
				store := func(e *kernel.Env, lines []uint64) int {
					p.storeLines(e, lines)
					return 0
				}
				// The observer's clock log carries the switch cost the
				// dirty lines modulate.
				observe := func(e *kernel.Env) int { e.Spin(40); return 0 }
				return [2]kernel.Program{
					&script{calls: symbolCalls(sLines, store)},
					&script{calls: []func(*kernel.Env) int{observe}},
				}, nil
			},
		})
	}
	return cases
}

// primRun is everything one run exposes: each scripted domain's log,
// the final core clocks, the machine's encoded state and the sink.
type primRun struct {
	logs   [2][]uint64
	clocks []uint64
	state  []byte
	units  [trace.NumUnits]trace.UnitStats
	pads   [2]uint64
	events []trace.Event
}

// minCalls is the fewest calls each scripted domain makes: every sender
// symbol twice.
const minCalls = 8

// minSlices makes every run cross several domain switches.
const minSlices = 12

// diffRing holds every event of one primitive run; runPrimCase fails if
// a ring wrapped.
const diffRing = 1 << 19

// runPrimCase forks c's system with a sink of ring events per core,
// runs the case's programs on it with prims, and collects the outcome.
func runPrimCase(t *testing.T, c primCase, prims primitives, ring int) primRun {
	t.Helper()
	s := c.spec.withDefaults()
	sink := trace.NewSink(ring)
	s.Tracer = sink
	s.ForkWithEvents = true
	sys, err := buildSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := c.setup(sys, s, prims)
	if err != nil {
		t.Fatal(err)
	}
	for d, prog := range progs {
		if _, err := sys.Spawn(d, fmt.Sprintf("d%d", d), 10, prog); err != nil {
			t.Fatal(err)
		}
	}
	var out primRun
	for slice := 0; ; slice++ {
		if slice == 1000 {
			t.Fatalf("a domain made fewer than %d calls in %d slices", minCalls, slice)
		}
		sys.RunCoresFor(c.cores, sys.Timeslice())
		done := true
		for d, prog := range progs {
			if sc, ok := prog.(*script); ok {
				out.logs[d] = sc.log
				done = done && len(sc.log) >= 2*minCalls
			}
		}
		if done && slice+1 >= minSlices {
			break
		}
	}
	for _, cpu := range sys.K.M.Cores {
		out.clocks = append(out.clocks, cpu.Now)
	}
	var w enc.Writer
	if err := sys.K.M.EncodeState(&w); err != nil {
		t.Fatal(err)
	}
	out.state = w.Bytes()
	for u := range out.units {
		out.units[u] = sink.UnitSnapshot(trace.Unit(u))
	}
	out.pads = [2]uint64{sink.PadCount, sink.PadCycles}
	if sink.EventsEnabled() {
		out.events = completeEvents(t, sink)
	}
	return out
}

// TestPrimitivesMatchScalarOracle holds each batched probe primitive to
// the per-line loop it stands in for, driven by the lines the real
// channels build: intra-core L1-D, L1-I, L2 and TLB senders and
// receivers on both platforms, raw and protected; the cross-core LLC
// spy's miss counting at a precise and a fuzzy clock; and the flush
// channel's store sender. The primitive runs on one fork and the oracle
// on a twin fork of the same system, once with a counters-only sink and
// once with an event ring. Every call's result and the clock after it,
// the final core clocks, the machine's encoded state, the sink counters
// and the complete event stream must match.
func TestPrimitivesMatchScalarOracle(t *testing.T) {
	for _, c := range primCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, ring := range []int{0, diffRing} {
				got := runPrimCase(t, c, batchedPrims, ring)
				want := runPrimCase(t, c, scalarPrims, ring)
				for d := range got.logs {
					if len(got.logs[d]) != len(want.logs[d]) {
						t.Fatalf("ring %d domain %d: %d calls, oracle %d", ring, d, len(got.logs[d])/2, len(want.logs[d])/2)
					}
					for i := range got.logs[d] {
						if got.logs[d][i] != want.logs[d][i] {
							what := [2]string{"result", "clock"}[i%2]
							t.Fatalf("ring %d domain %d call %d: %s %d, oracle %d", ring, d, i/2, what, got.logs[d][i], want.logs[d][i])
						}
					}
				}
				if c.misses {
					total := uint64(0)
					for i := 0; i < len(got.logs[1]); i += 2 {
						total += got.logs[1][i]
					}
					if total == 0 {
						t.Fatalf("ring %d: no probe counted a miss", ring)
					}
				}
				if !slices.Equal(got.clocks, want.clocks) {
					t.Fatalf("ring %d: core clocks %v, oracle %v", ring, got.clocks, want.clocks)
				}
				if !bytes.Equal(got.state, want.state) {
					t.Fatalf("ring %d: final machine state diverges", ring)
				}
				for u := range got.units {
					if got.units[u] != want.units[u] {
						t.Fatalf("ring %d: %v counters diverge:\n  batched: %+v\n  oracle:  %+v",
							ring, trace.Unit(u), got.units[u], want.units[u])
					}
				}
				if got.pads != want.pads {
					t.Fatalf("ring %d: pad counters %v, oracle %v", ring, got.pads, want.pads)
				}
				if ring > 0 && len(got.events) == 0 {
					t.Fatal("the event ring recorded nothing")
				}
				if len(got.events) != len(want.events) {
					t.Fatalf("ring %d: %d events, oracle %d", ring, len(got.events), len(want.events))
				}
				for i := range got.events {
					if got.events[i] != want.events[i] {
						t.Fatalf("event %d diverges:\n  batched: %v\n  oracle:  %v", i, got.events[i], want.events[i])
					}
				}
			}
		})
	}
}
