// Command tpbench regenerates the tables and figures of "Time
// Protection: The Missing OS Abstraction" (EuroSys'19) on the simulated
// platforms.
//
// Usage:
//
//	tpbench -all                      # every table and figure, both platforms
//	tpbench -all -parallel 8          # same bytes, 8 workers
//	tpbench -table 3 -platform sabre  # one table, one platform
//	tpbench -figure 4                 # one figure
//	tpbench -artefact table2,smt      # artefacts by registry name
//	tpbench -ablations                # the DESIGN.md ablation study
//	tpbench -list                     # the artefact registry
//
// Artefacts resolve through the registry in internal/experiments — the
// same source of truth the tpserved HTTP API serves from, so tpbench
// output and tpserved responses are byte-identical for the same config.
//
// Independent artefacts run concurrently on -parallel workers (default:
// all CPUs). Every driver builds its own deterministic simulated
// machine and each job's output is buffered and emitted in the
// sequential order, so the report is byte-identical for every worker
// count with the same seed.
//
// Scaled quantities (time slices, sample counts, working sets) are
// documented in EXPERIMENTS.md; shapes, orderings and mitigation
// efficacy correspond to the paper.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/store"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate one table (1-8)")
		figure     = flag.Int("figure", 0, "regenerate one figure (3-7)")
		artefact   = flag.String("artefact", "", "comma-separated artefact names from the registry (see -list)")
		list       = flag.Bool("list", false, "list the artefact registry and exit")
		all        = flag.Bool("all", false, "regenerate everything")
		ablations  = flag.Bool("ablations", false, "run the design-decision ablations")
		extensions = flag.Bool("extensions", false, "run the beyond-the-paper studies (interconnect, CAT, SMT, fuzzy time)")
		check      = flag.Bool("check", false, "regression gate: verify every security verdict, exit nonzero on failure")
		platform   = flag.String("platform", "both", "haswell, sabre or both")
		samples    = flag.Int("samples", 150, "samples per channel measurement")
		blocks     = flag.Int("blocks", 0, "Splash-2 work blocks (0 = benchmark default)")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		metrics    = flag.Bool("metrics", false, "append a per-component cycle-accounting report to each artefact")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "concurrent experiment workers (output is identical for any value)")
		storeDir   = flag.String("store", "", "durable result store directory; completed artefacts are persisted as they finish")
		resume     = flag.Bool("resume", false, "skip artefacts already completed in -store (a killed run resumes with byte-identical output)")
		snapStats  = flag.Bool("snapshot-stats", false, "report snapshot capture/fork/memo counters to stderr after the run")
	)
	flag.Parse()
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "tpbench: -resume requires -store DIR")
		os.Exit(2)
	}

	if *list {
		for _, a := range experiments.Registry() {
			scope := "both platforms"
			switch {
			case a.Global:
				scope = "platform-independent"
			case a.X86Only:
				scope = "x86 only"
			}
			fmt.Printf("%-13s %-40s (%s)\n", a.Name, a.Title, scope)
		}
		return
	}

	var names []string
	if *artefact != "" {
		names = strings.Split(*artefact, ",")
		if err := experiments.ValidateArtefactNames(names); err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(2)
		}
	}

	var plats []hw.Platform
	switch *platform {
	case "both":
		plats = []hw.Platform{hw.Haswell(), hw.Sabre()}
	default:
		p, ok := hw.PlatformByName(*platform)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q (haswell|sabre|both)\n", *platform)
			os.Exit(2)
		}
		plats = []hw.Platform{p}
	}

	entries := experiments.Expand(experiments.PlanSpec{
		Platforms:  plats,
		Base:       experiments.Config{Samples: *samples, SplashBlocks: *blocks, Seed: *seed, Metrics: *metrics},
		All:        *all,
		Table:      *table,
		Figure:     *figure,
		Artefacts:  names,
		Ablations:  *ablations,
		Extensions: *extensions,
		Check:      *check,
	})
	if len(entries) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The durable store persists each completed artefact as it finishes
	// (atomic write + checksum + journal); with -resume, entries whose
	// results are already on disk are served from the store instead of
	// re-running — a killed -all run picks up where it died and still
	// assembles the plan in order, so the final output is byte-identical
	// to an uninterrupted run.
	var rs experiments.ResultStore
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{
			Log: log.New(os.Stderr, "tpbench: ", 0),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
			os.Exit(2)
		}
		defer st.Close()
		if *resume {
			stats := st.Stats()
			fmt.Fprintf(os.Stderr, "tpbench: resuming from %s (%d completed artefacts recovered)\n",
				*storeDir, stats.Recovered)
		}
		rs = st
	}

	err := experiments.RunJobs(experiments.PlanJobs(entries, rs, *resume), *parallel, os.Stdout)
	if *snapStats {
		s, reg := snapshot.Stats(), snapshot.RegistryStats()
		fmt.Fprintf(os.Stderr, "tpbench: snapshots: %d captures, %d forks, %d memo hits, %d cold-boot fallbacks; registry %d entries, %d bytes\n",
			s.Captures, s.Forks, s.MemoHits, s.Fallbacks, reg.Entries, reg.Bytes)
	}
	if err != nil {
		if !errors.Is(err, experiments.ErrCheckFailed) {
			fmt.Fprintf(os.Stderr, "tpbench: %v\n", err)
		}
		os.Exit(1)
	}
}
