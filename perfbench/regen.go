package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"timeprotection/internal/channel"
	"timeprotection/internal/core"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// childEnv selects a child mode when the benchmark re-executes itself:
// regen work must start from a fresh process, with empty snapshot and
// memo state.
const childEnv = "PERFBENCH_CHILD"

// regenSamples is tpbench's default sample count; regenSmokeSamples
// shrinks the smoke configuration.
const (
	regenSamples      = 150
	regenSmokeSamples = 30
)

// regenPlan is the plan a researcher regenerates with tpbench -all
// -check: every paper artefact plus the verdict gate, on both
// platforms. The smoke plan keeps four cheap artefacts and no gate.
func regenPlan(seed int64, smoke bool) []experiments.PlanEntry {
	spec := experiments.PlanSpec{
		Platforms: []hw.Platform{hw.Haswell(), hw.Sabre()},
		Base:      experiments.Config{Samples: regenSamples, Seed: seed},
		All:       true,
		Check:     true,
	}
	if smoke {
		spec = experiments.PlanSpec{
			Platforms: spec.Platforms,
			Base:      experiments.Config{Samples: regenSmokeSamples, Seed: seed},
			Artefacts: []string{"table1", "table2", "table5", "table7"},
		}
	}
	return experiments.Expand(spec)
}

// childEntry is one plan entry as a regen child ran it.
type childEntry struct {
	Name     string  `json:"name"`
	Artefact string  `json:"artefact"` // empty for a check entry
	Check    bool    `json:"check"`
	Output   string  `json:"output"`
	Err      string  `json:"err,omitempty"`
	StartS   float64 `json:"start_s"` // since RunJobs began
	DurS     float64 `json:"dur_s"`
}

// childReport is what a regen child prints on standard output.
type childReport struct {
	Entries []childEntry      `json:"entries"`
	RunS    float64           `json:"run_s"` // RunJobs wall time
	CPUS    float64           `json:"cpu_s"` // process CPU during RunJobs
	HeapMB  float64           `json:"heap_mb"`
	Snap    snapshot.Counters `json:"snapshot"`
	// Traced child only: simulated counters summed over every entry's
	// sink, by trace unit name, then the single-layer probes: snapshot
	// boot/fork timing and the Table 3 cell sweep.
	Units       map[string]trace.UnitStats `json:"units,omitempty"`
	PadCycles   uint64                     `json:"pad_cycles,omitempty"`
	CaptureMS   float64                    `json:"capture_ms,omitempty"`
	ForkMS      float64                    `json:"fork_ms,omitempty"`
	ChannelRunS float64                    `json:"channel_run_s,omitempty"`
	MIAnalyzeS  float64                    `json:"mi_analyze_s,omitempty"`
}

// regenProcs is a regen child's Go processor count and RunJobs worker
// count: the plan runs as tpbench -all -parallel 1 would. With both
// vCPUs of a 2-vCPU cloud host busy, hypervisor steal took 4-16% of the
// host's CPU time and tracked the regeneration's wall time (wall varied
// by 12.8% over five regenerations); on one processor, interleaved with
// those, steal stayed at 3-5% and wall varied by 3.4%.
const regenProcs = 1

// childMain runs one child mode and returns the process exit code.
func childMain(mode string, args []string) int {
	runtime.GOMAXPROCS(regenProcs)
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "plan seed")
	smoke := fs.Bool("smoke", false, "smoke plan")
	traced := fs.Bool("traced", false, "count simulated events per entry, then time single layers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	entries := regenPlan(*seed, *smoke)
	switch mode {
	case "first":
		return childFirst(entries)
	case "regen":
		rep, err := childRegen(entries, *seed, *smoke, *traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "perfbench child: unknown mode %q\n", mode)
	return 2
}

// childFirst reports, on standard output, when the plan is ready and
// when the first per-platform artefact (the first machine boot) is
// done: the set-up and cold-start latency of a fresh tpbench process.
func childFirst(entries []experiments.PlanEntry) int {
	fmt.Println("ready")
	for _, e := range entries {
		if _, err := e.Output(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %s: %v\n", e.JobName(), err)
			return 1
		}
		if !e.Artefact.Global {
			break
		}
	}
	fmt.Println("first")
	return 0
}

// childRegen runs the plan through RunJobs with regenProcs workers,
// timing each entry. Traced, it also counts simulated events per entry and
// probes single layers afterwards.
func childRegen(entries []experiments.PlanEntry, seed int64, smoke, traced bool) (*childReport, error) {
	rep := &childReport{Entries: make([]childEntry, len(entries))}
	var sinks []*trace.Sink
	if traced {
		sinks = make([]*trace.Sink, len(entries))
		for i := range entries {
			sinks[i] = trace.NewSink(0)
			entries[i].Config.Tracer = sinks[i]
		}
	}
	var runStart time.Time
	jobs := make([]experiments.Job, len(entries))
	for i, e := range entries {
		i, e := i, e
		ce := &rep.Entries[i]
		ce.Name, ce.Check = e.JobName(), e.Check
		if !e.Check {
			ce.Artefact = e.Artefact.Name
		}
		jobs[i] = experiments.Job{Name: e.JobName(), Run: func() (string, error) {
			t0 := time.Now()
			out, err := e.Output()
			ce.StartS = t0.Sub(runStart).Seconds()
			ce.DurS = time.Since(t0).Seconds()
			ce.Output = out
			if err != nil {
				ce.Err = err.Error()
			}
			return out, err
		}}
	}
	cpu0 := processCPU()
	runStart = time.Now()
	err := experiments.RunJobs(jobs, regenProcs, io.Discard)
	rep.RunS = time.Since(runStart).Seconds()
	rep.CPUS = (processCPU() - cpu0).Seconds()
	if err != nil && !errors.Is(err, experiments.ErrCheckFailed) {
		return nil, err
	}
	rep.Snap = snapshot.Stats()
	if traced {
		rep.Units = map[string]trace.UnitStats{}
		for _, s := range sinks {
			for u := trace.Unit(1); u < trace.NumUnits; u++ {
				st := s.UnitSnapshot(u)
				sum := rep.Units[u.String()]
				addUnitStats(&sum, st)
				rep.Units[u.String()] = sum
			}
			rep.PadCycles += s.PadCycles
		}
		samples := regenSamples
		if smoke {
			samples = regenSmokeSamples
		}
		if err := probeLayers(rep, seed, samples); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	rep.HeapMB = heapMB()
	return rep, nil
}

func addUnitStats(dst *trace.UnitStats, s trace.UnitStats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
	dst.Flushes += s.Flushes
	dst.FlushedLines += s.FlushedLines
	dst.Issues += s.Issues
	dst.Cycles += s.Cycles
	dst.WritebackCycles += s.WritebackCycles
}

// forkSamples is how many later snapshot.NewSystem calls are timed per
// platform after the first (capturing) one.
const forkSamples = 5

// probeLayers times single layers from cold: snapshot boots and forks
// (probeSnapshot), then the Table 3 cell sweep — channel.RunIntraCore
// followed by mi.Analyze for every resource and scenario on both
// platforms — with every memo dropped first.
func probeLayers(rep *childReport, seed int64, samples int) error {
	var err error
	if rep.CaptureMS, rep.ForkMS, err = probeSnapshot(); err != nil {
		return err
	}
	plats := []hw.Platform{hw.Haswell(), hw.Sabre()}
	snapshot.Reset()
	scenarios := []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected}
	for _, p := range plats {
		rng := rand.New(rand.NewSource(seed))
		for _, r := range channel.Resources(p) {
			for _, sc := range scenarios {
				t0 := time.Now()
				ds, err := channel.RunIntraCore(channel.Spec{Platform: p, Scenario: sc, Samples: samples, Seed: seed}, r)
				if err != nil {
					return fmt.Errorf("%s %v %v: %w", p.Name, r, sc, err)
				}
				t1 := time.Now()
				mi.Analyze(ds, rng)
				rep.ChannelRunS += t1.Sub(t0).Seconds()
				rep.MIAnalyzeS += time.Since(t1).Seconds()
			}
		}
	}
	return nil
}

// probeSnapshot drops every snapshot and memo, then times per platform
// the first snapshot.NewSystem call (a capture boot plus a fork) and the
// median of the later ones (a fork only); both are summed over the
// platforms.
func probeSnapshot() (captureMS, forkMS float64, err error) {
	snapshot.Reset()
	for _, p := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		opts := core.Options{Platform: p, Scenario: kernel.ScenarioRaw, Domains: 2}
		t0 := time.Now()
		if _, err := snapshot.NewSystem(opts); err != nil {
			return 0, 0, err
		}
		captureMS += ms(time.Since(t0))
		var forks []float64
		for i := 0; i < forkSamples; i++ {
			t0 := time.Now()
			if _, err := snapshot.NewSystem(opts); err != nil {
				return 0, 0, err
			}
			forks = append(forks, ms(time.Since(t0)))
		}
		forkMS += median(forks)
	}
	return captureMS, forkMS, nil
}

// childRun is one finished regen child as the parent saw it.
type childRun struct {
	rep  *childReport
	wall time.Duration // spawn to exit
	cpu  time.Duration // the child's user+system CPU
}

// childTimeout bounds one child; a regen takes about 20 s.
const childTimeout = 150 * time.Second

func childCommand(ctx context.Context, mode string, seed int64, smoke bool, extra ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	args := []string{"-seed", fmt.Sprint(seed)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, append(args, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	cmd.Stderr = os.Stderr
	return cmd
}

// spawnRegen runs one regen child and decodes its report.
func spawnRegen(seed int64, smoke bool, extra ...string) (*childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := childCommand(ctx, "regen", seed, smoke, extra...)
	var out bytes.Buffer
	cmd.Stdout = &out
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("regen child: %w", err)
	}
	run := &childRun{wall: time.Since(t0), cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	run.rep = &childReport{}
	if err := json.Unmarshal(out.Bytes(), run.rep); err != nil {
		return nil, fmt.Errorf("regen child report: %w", err)
	}
	return run, nil
}

// spawnFirst runs one "first" child and returns the spawn-to-ready and
// spawn-to-first-artefact times.
func spawnFirst(seed int64, smoke bool) (ready, first time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := childCommand(ctx, "first", seed, smoke)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		switch sc.Text() {
		case "ready":
			ready = time.Since(t0)
		case "first":
			first = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("first child: %w", err)
	}
	if ready == 0 || first == 0 {
		return 0, 0, errors.New("first child: missing progress lines")
	}
	return ready, first, nil
}

// firstReps is how many fresh processes time set-up and cold start.
const firstReps = 31

// runRegen is the regen workload. Set-up is a fresh process expanding
// the plan; the measured work is whole cold regenerations, one and then
// more while another fits in the run's seconds; the traced run adds one
// traced child: a counted regeneration with every simulated event
// tallied, then the single-layer probes.
func runRegen(cfg runConfig, rep *report) error {
	reps := firstReps
	if cfg.smoke {
		reps = 2
	}
	var setups, firsts []float64
	for i := 0; i < reps; i++ {
		ready, first, err := spawnFirst(cfg.seed, cfg.smoke)
		if err != nil {
			return err
		}
		setups = append(setups, ready.Seconds())
		firsts = append(firsts, ms(first))
	}
	rep.set("setup_s", median(setups))
	rep.set("restore_p50_ms", median(firsts))

	start := time.Now()
	var runs []*childRun
	for {
		r, err := spawnRegen(cfg.seed, cfg.smoke)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		if time.Since(start)+r.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	var walls, cpus, heaps, runSecs, p50s, p90s, p99s []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		heaps = append(heaps, r.rep.HeapMB)
		runSecs = append(runSecs, r.rep.RunS)
		lats := printedMS(r.rep.Entries)
		p50s = append(p50s, quantile(lats, 0.5))
		p90s = append(p90s, quantile(lats, 0.9))
		p99s = append(p99s, quantile(lats, 0.99))
	}
	entriesPerRun := float64(len(runs[0].rep.Entries))
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("heap_mb", median(heaps))
	rep.set("req_per_cpu_s", entriesPerRun/median(cpus))
	rep.set("lat_p50_ms", median(p50s))
	rep.set("lat_p90_ms", median(p90s))
	rep.set("client.lat_p99_ms", median(p99s))

	want, err := regenReference(cfg)
	if err != nil {
		rep.problem("regen: %v", err)
	}
	for i, r := range runs {
		checkRegen(rep, fmt.Sprintf("regen %d", i), r.rep.Entries, want)
	}
	rep.note("regen: %d cold regeneration(s) of %d plan entries in fresh processes, %d worker(s) on GOMAXPROCS=%d", len(runs), len(runs[0].rep.Entries), regenProcs, regenProcs)

	regenLayers(rep, runs[0])
	if !cfg.trace {
		return nil
	}
	// The counted regeneration attaches a counters-only sink to every
	// entry. The program does not memoize a channel run that has a sink,
	// so it also repeats the simulations the untraced run shares between
	// artefacts: for regen, trace.overhead_pct is the cost of the sinks
	// plus that lost sharing, not of the sinks alone.
	counted, err := spawnRegen(cfg.seed, cfg.smoke, "-traced")
	if err != nil {
		return err
	}
	checkRegen(rep, "counted regen", counted.rep.Entries, want)
	for i, e := range counted.rep.Entries {
		if e.Output != runs[0].rep.Entries[i].Output {
			rep.problem("counted regen: %s output differs from the untraced run", e.Name)
		}
	}
	countedLayers(rep, counted)
	rep.set("trace.overhead_pct", 100*(counted.rep.RunS-median(runSecs))/median(runSecs))
	for _, r := range runs {
		recordEntrySpans(rep.tr, r.rep)
	}
	rep.set("trace.spans", float64(rep.tr.count()))
	return nil
}

// printedMS is, for each plan entry, the time from the start of RunJobs
// until its output can be written: RunJobs writes in plan order, so an
// entry waits for every entry before it. This is the latency a tpbench
// -all user sees.
func printedMS(entries []childEntry) []float64 {
	out := make([]float64, len(entries))
	last := 0.0
	for i, e := range entries {
		last = math.Max(last, e.StartS+e.DurS)
		out[i] = last * 1000
	}
	return out
}

// regenLayers reports the per-layer numbers an untraced regeneration
// already yields: host seconds per paper artefact (summed over
// platforms), the longest job, and the snapshot counters.
func regenLayers(rep *report, r *childRun) {
	longest := 0.0
	for _, e := range r.rep.Entries {
		if e.Artefact != "" {
			rep.values["experiments."+e.Artefact+"_s"] += e.DurS
		}
		if e.DurS > longest {
			longest = e.DurS
		}
	}
	rep.set("experiments.longest_job_s", longest)
	rep.set("experiments.runs", float64(len(r.rep.Entries)))
	var durs []float64
	for _, e := range r.rep.Entries {
		durs = append(durs, e.DurS*1000)
	}
	rep.set("experiments.run_ms", median(durs))
	rep.set("snapshot.captures", float64(r.rep.Snap.Captures))
	rep.set("snapshot.forks", float64(r.rep.Snap.Forks))
	rep.set("snapshot.memo_hits", float64(r.rep.Snap.MemoHits))
}

// countedLayers reports the simulated counts of the counted pass and
// its single-layer probes.
func countedLayers(rep *report, r *childRun) {
	u := r.rep.Units
	for _, s := range simUnits {
		st := u[s.unit]
		rep.set(s.prefix+".accesses", float64(st.Accesses))
		rep.set(s.prefix+".misses", float64(st.Misses))
		if s.cycles {
			rep.set(s.prefix+".cycles", float64(st.Cycles+st.WritebackCycles))
		}
	}
	rep.set("cache.prefetch.issues", float64(u["prefetch"].Issues))
	rep.set("memory.walk.issues", float64(u["ptwalk"].Issues))
	rep.set("memory.walk.cycles", float64(u["ptwalk"].Cycles))
	rep.set("hw.dram.accesses", float64(u["DRAM"].Accesses))
	rep.set("hw.dram.cycles", float64(u["DRAM"].Cycles))
	rep.set("kernel.cycles", float64(u["kernel"].Cycles))
	rep.set("kernel.pad_cycles", float64(r.rep.PadCycles))
	if acc := u["L1-D"].Accesses + u["L1-I"].Accesses; acc > 0 {
		rep.set("cache.host_ns_per_access", r.rep.CPUS*1e9/float64(acc))
	}
	rep.set("snapshot.capture_ms", r.rep.CaptureMS)
	rep.set("snapshot.fork_ms", r.rep.ForkMS)
	rep.set("channel.run_s", r.rep.ChannelRunS)
	rep.set("mi.analyze_s", r.rep.MIAnalyzeS)
}

// recordEntrySpans turns a child's per-entry timings into spans, one per
// plan entry under one span for the regeneration, on the child's own
// clock (each regeneration starts at 0).
func recordEntrySpans(t *tracer, r *childReport) {
	root := t.newID()
	t.add(span{ID: root, Req: root, Name: "regen", End: r.RunS * 1000})
	for _, e := range r.Entries {
		t.add(span{
			ID: t.newID(), Parent: root, Req: root, Name: "experiments.PlanEntry.Output",
			Start: e.StartS * 1000, End: (e.StartS + e.DurS) * 1000, Attr: e.Name,
		})
	}
}

// regenReference is the byte-exact expectation for the artefact part of
// a regeneration, or "" where none applies: the archived tpbench -all
// output at seed 42, and for the smoke plan the entries rendered in this
// process.
func regenReference(cfg runConfig) (string, error) {
	if cfg.smoke {
		var b strings.Builder
		for _, e := range regenPlan(cfg.seed, true) {
			out, err := e.Output()
			if err != nil {
				return "", fmt.Errorf("reference %s: %w", e.JobName(), err)
			}
			b.WriteString(out)
		}
		return b.String(), nil
	}
	if cfg.seed != 42 {
		return "", nil
	}
	for _, p := range []string{"docs/results-snapshot.txt", "../docs/results-snapshot.txt"} {
		if b, err := os.ReadFile(p); err == nil {
			return string(b), nil
		}
	}
	return "", errors.New("docs/results-snapshot.txt not found; the seed-42 output cannot be checked")
}

// checkRegen verifies one regeneration: no entry failed, every verdict
// of the gate holds, and where a reference exists the artefact output
// equals it byte for byte.
func checkRegen(rep *report, what string, entries []childEntry, want string) {
	var c classCount
	var got strings.Builder
	for _, e := range entries {
		c.Attempted++
		ok := e.Err == ""
		if e.Check && !strings.HasSuffix(e.Output, "all verdicts hold\n") {
			rep.problem("%s: %s: security verdicts do not all hold", what, e.Name)
			ok = false
		}
		if ok {
			c.Succeeded++
		} else {
			c.Failed++
			if e.Err != "" {
				rep.problem("%s: %s: %s", what, e.Name, e.Err)
			}
		}
		if !e.Check {
			got.WriteString(e.Output)
		}
	}
	rep.count("plan_entry", c)
	if want != "" && got.String() != want {
		rep.problem("%s: artefact output differs from the reference (%d bytes, want %d)", what, got.Len(), len(want))
	}
}
