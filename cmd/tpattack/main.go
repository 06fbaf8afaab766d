// Command tpattack runs a single timing-channel attack end to end and
// reports the mutual-information measurement (and for the LLC side
// channel, the recovered key bits), optionally dumping the raw samples
// as CSV for cmd/tpmi.
//
// Usage:
//
//	tpattack -channel l1d -scenario raw
//	tpattack -channel kernel -scenario protected -platform sabre
//	tpattack -channel llc -scenario raw
//	tpattack -channel interrupt -partition
//	tpattack -channel flush -pad 62.5 -csv samples.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
)

func main() {
	var (
		chName    = flag.String("channel", "l1d", "l1d|l1i|l2|tlb|btb|bhb|kernel|flush|interrupt|llc")
		scenario  = flag.String("scenario", "raw", "raw|fullflush|protected")
		platform  = flag.String("platform", "haswell", "haswell|sabre")
		samples   = flag.Int("samples", 200, "samples to collect")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		pad       = flag.Float64("pad", 0, "switch padding in microseconds (at most 1e6)")
		partition = flag.Bool("partition", false, "partition the trojan's IRQ (interrupt channel)")
		noPF      = flag.Bool("disable-prefetcher", false, "disable the data prefetcher (MSR 0x1A4 analogue)")
		csvPath   = flag.String("csv", "", "write raw samples to this CSV file")
	)
	flag.Parse()
	if !(*pad >= 0 && *pad <= channel.MaxPadMicros) {
		fmt.Fprintf(os.Stderr, "tpattack: -pad %v outside [0, %v] microseconds\n", *pad, float64(channel.MaxPadMicros))
		os.Exit(2)
	}

	plat, ok := hw.PlatformByName(*platform)
	if !ok {
		fatalf("unknown platform %q", *platform)
	}
	sc, ok := kernel.ParseScenario(*scenario)
	if !ok {
		fatalf("unknown scenario %q", *scenario)
	}
	spec := channel.Spec{
		Platform: plat, Scenario: sc, Samples: *samples, Seed: *seed,
		PadMicros: *pad, DisablePrefetcher: *noPF,
	}

	var ds *mi.Dataset
	var err error
	switch *chName {
	case "flush":
		var r *channel.FlushChannelResult
		r, err = channel.RunFlushChannel(spec)
		if err == nil {
			report("flush channel (online)", r.Online, *seed, "")
			ds = r.Offline
			*chName = "flush channel (offline)"
		}
	case "llc":
		var r *channel.LLCSideChannelResult
		r, err = channel.RunLLCSideChannel(spec)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("LLC side channel (%s, %s):\n", plat.Name, sc)
		fmt.Printf("  eviction set: %d ways; active slots: %d of %d\n",
			r.EvictionWays, r.ActiveSlots, len(r.Trace))
		fmt.Printf("  key bits: %d true, %d recovered, accuracy %.1f%%\n",
			len(r.TrueBits), len(r.Recovered), r.Accuracy*100)
		return
	default:
		c, ok := channel.LookupSteppable(*chName)
		if !ok {
			fatalf("unknown channel %q", *chName)
		}
		var x *channel.Interactive
		if x, err = c.Prepare(spec, *partition); err == nil {
			ds, err = x.Run()
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	report(fmt.Sprintf("%s channel (%s, %s)", *chName, plat.Name, sc), ds, *seed, *csvPath)
}

func report(name string, ds *mi.Dataset, seed int64, csvPath string) {
	r := mi.Analyze(ds, rand.New(rand.NewSource(seed)))
	fmt.Printf("%s: %v\n", name, r)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := ds.WriteCSV(f); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %d samples to %s\n", ds.N(), csvPath)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpattack: "+format+"\n", args...)
	os.Exit(1)
}
