// Command tpinspect builds a time-protected system, runs it briefly with
// a workload in each domain, and prints the partition map the mechanisms
// establish: colour assignments, kernel image placement, the shared-data
// audit (§4.1), per-domain LLC occupancy, and the last kernel events of
// the machine-wide trace. It is the "show me the partitioning actually
// happened" tool.
//
// With -trace it additionally records the machine-wide event stream
// (cache hits/misses/evictions, TLB and predictor outcomes, page walks,
// kernel switch phases, channel samples) and writes it as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto. With
// -metrics it prints the per-component cycle-accounting report.
// -workload figure3 replays the paper's Figure 3 kernel covert channel
// instead of the synthetic per-domain loads, so the traced switch
// phases are the ones the paper's attack rides on.
//
// Usage:
//
//	tpinspect [-platform haswell|sabre] [-domains 2] [-slices 16]
//	tpinspect -workload figure3 -scenario raw -trace fig3.json -metrics
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"timeprotection/internal/channel"
	"timeprotection/internal/core"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
	"timeprotection/internal/trace"
)

// traceRingCap bounds the per-core event ring when -trace is given: the
// Chrome export keeps the newest ~1M events per core, plenty for a few
// dozen time slices while bounding memory.
const traceRingCap = 1 << 20

// traceTail is how many of the last kernel events the synthetic
// workload prints.
const traceTail = 12

func main() {
	var (
		platform  = flag.String("platform", "haswell", "haswell or sabre")
		domains   = flag.Int("domains", 2, "security domains")
		slices    = flag.Int("slices", 16, "time slices to run before inspecting")
		workload  = flag.String("workload", "synthetic", "synthetic (per-domain loads) or figure3 (kernel covert channel)")
		scenario  = flag.String("scenario", "", "raw, fullflush or protected (default: protected; figure3 default: raw)")
		traceFile = flag.String("trace", "", "write Chrome trace-event JSON to this file")
		metrics   = flag.Bool("metrics", false, "print the per-component cycle-accounting report")
		samples   = flag.Int("samples", 40, "channel samples for -workload figure3")
	)
	flag.Parse()
	plat, ok := hw.PlatformByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}

	// -trace retains the whole event stream. The synthetic workload's
	// kernel trace tail needs events emitted but keeps its own copies,
	// so a one-event ring suffices; -metrics alone needs only counters.
	var sink *trace.Sink
	switch {
	case *traceFile != "":
		sink = trace.NewSink(traceRingCap)
	case *workload == "synthetic":
		sink = trace.NewSink(1)
	case *metrics:
		sink = trace.NewSink(0)
	}

	switch *workload {
	case "synthetic":
		sc, ok := scenarioByName(*scenario, kernel.ScenarioProtected)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
			os.Exit(2)
		}
		runSynthetic(plat, sc, *domains, *slices, sink)
	case "figure3":
		sc, ok := scenarioByName(*scenario, kernel.ScenarioRaw)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
			os.Exit(2)
		}
		runFigure3(plat, sc, *samples, sink)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q (synthetic|figure3)\n", *workload)
		os.Exit(2)
	}

	if *metrics {
		fmt.Printf("\n%s", sink.MetricsReport())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sink.WriteChrome(f, plat.ClockHz/1e6); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s\n", sink.Total(), *traceFile)
	}
}

func scenarioByName(name string, dflt kernel.Scenario) (kernel.Scenario, bool) {
	if name == "" {
		return dflt, true
	}
	return kernel.ParseScenario(name)
}

// runFigure3 replays the paper's Figure 3 kernel covert channel under
// the requested scenario with the sink attached, and summarises the
// leakage the samples carry.
func runFigure3(plat hw.Platform, sc kernel.Scenario, samples int, sink *trace.Sink) {
	ds, err := channel.RunKernelChannel(channel.Spec{
		Platform: plat, Scenario: sc, Samples: samples, Seed: 42, Tracer: sink,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := mi.Analyze(ds, rand.New(rand.NewSource(42)))
	fmt.Printf("=== %s, figure-3 kernel channel, %v ===\n\n", plat.Name, sc)
	fmt.Printf("samples %d, %v\n", ds.N(), m)
}

// runSynthetic is the classic inspection flow: one small load per
// domain, then print the partition map the mechanisms establish. The
// sink must retain events.
func runSynthetic(plat hw.Platform, sc kernel.Scenario, domains, slices int, sink *trace.Sink) {
	var tail []trace.Event
	kernelEvents := 0
	byKind := map[trace.Kind]int{}
	sink.OnEvent = func(e trace.Event) {
		if e.Unit != trace.UnitKernel {
			return
		}
		kernelEvents++
		byKind[e.Kind]++
		if len(tail) == traceTail {
			tail = append(tail[:0], tail[1:]...)
		}
		tail = append(tail, e)
	}
	sys, err := core.NewSystem(core.Options{
		Platform: plat,
		Scenario: sc,
		Domains:  domains,
		Tracer:   sink,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// One small workload per domain so the caches carry real state.
	for d := range sys.Domains {
		base := uint64(0x1000_0000)
		if _, err := sys.MapBuffer(d, base, 16); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pos := uint64(0)
		if _, err := sys.Spawn(d, fmt.Sprintf("load%d", d), 10, kernel.ProgramFunc(func(e *kernel.Env) bool {
			for i := 0; i < 64; i++ {
				e.Load(base + (pos%1024)*64)
				pos += 3
			}
			e.Spin(500)
			return true
		})); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	sys.RunCoreFor(0, uint64(slices)*sys.Timeslice())

	nCol := plat.Colours()
	fmt.Printf("=== %s, %d domains, %v ===\n\n", plat.Name, domains, sc)

	fmt.Println("Partition map:")
	colourOwner := map[int]int{}
	for _, d := range sys.Domains {
		fmt.Printf("  domain %d: colours %v, kernel image #%d (pad %d cycles)\n",
			d.ID, d.Pool.Colours(), d.Image.ID, d.Image.PadCycles)
		for _, c := range d.Pool.Colours() {
			colourOwner[c] = d.ID
		}
		cols := map[int]bool{}
		for _, f := range d.Image.TextFrames() {
			cols[memory.ColourOf(f, nCol)] = true
		}
		fmt.Printf("            kernel text spans %d frames in colours %v\n",
			len(d.Image.TextFrames()), keys(cols))
	}

	fmt.Println("\nShared-data audit (§4.1):")
	for _, e := range sys.K.Shared.AuditSharedData() {
		verdict := "clean"
		if e.UserSecret {
			verdict = "TAINTED"
		}
		fmt.Printf("  %-32s %5d B  accessed on %-14s  %s\n", e.Name, e.Size, e.AccessedOn, verdict)
	}

	fmt.Println("\nLLC occupancy by owner:")
	llc := sys.K.M.Hier.LLC()
	// Rows print domains ascending, then boot/shared; an owner holding no
	// line gets no row.
	byDomain := make([]int, len(sys.Domains))
	shared := 0
	llc.VisitLines(func(tag uint64, dirty bool) {
		c := memory.ColourOf(memory.PFN(tag>>memory.PageBits), nCol)
		if owner, ok := colourOwner[c]; ok {
			byDomain[owner]++
		} else {
			shared++
		}
	})
	total := llc.Sets() * llc.Ways()
	row := func(who string, n int) {
		if n > 0 {
			fmt.Printf("  %-12s %6d lines (%.1f%% of LLC)\n", who, n, 100*float64(n)/float64(total))
		}
	}
	for id, n := range byDomain {
		row(fmt.Sprintf("domain %d", id), n)
	}
	row("boot/shared", shared)

	fmt.Println("\nKernel metrics:")
	fmt.Printf("  ticks %d, domain switches %d, kernel switches %d, syscalls %d, IRQs %d\n",
		byKind[trace.KernelTick], byKind[trace.DomainSwitchBegin], byKind[trace.KernelSwitch],
		byKind[trace.KernelSyscall], byKind[trace.KernelIRQ])

	fmt.Printf("\nKernel trace tail (%d of %d kernel events):\n", len(tail), kernelEvents)
	for _, e := range tail {
		fmt.Printf("  %v\n", e)
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m { // order-free: sorted below
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
