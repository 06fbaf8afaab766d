// Command perfbench is the repository benchmark. One invocation runs one
// named workload and prints, as the last line of standard output, a JSON
// object with the run's correctness verdict, its attempted and failed
// operation counts, and its metrics:
//
//	perfbench -workload regen|serve|sessions -seed N -seconds S -trace 0|1
//
// With -trace 0 the metrics are the end-to-end ones (what a user of
// tpbench or tpserved sees); with -trace 1 the same workload runs with
// spans recorded in the benchmark's own code around calls into each
// module, and the metrics are the per-layer ones. The workloads are:
//
//   - regen: a cold regeneration of the paper's plan (-all plus -check,
//     both platforms, 150 samples) in a fresh process.
//   - serve: nproc closed-loop clients against an in-process 3-shard
//     tpserved, Zipf-skewed artefact keys, one restart of every shard.
//   - sessions: nproc closed-loop clients stepping durable attack
//     sessions on the same deployment, with restarts that force
//     restore-by-replay.
//
// The workload seed only shapes the generated inputs; every output is
// checked for correctness, and any failed check fails the run. See
// README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:]))
	}
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "regen, serve or sessions")
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured load time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for span dumps and shard stores")
	flag.Parse()
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload regen|serve|sessions -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (regen, serve, sessions)\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printInfo(os.Stdout, cfg, rep)
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	smoke    bool // smoke-sized inputs, for the benchmark's own tests
}

// workloads maps each workload name to the function that runs it. The
// function measures, checks outputs, and fills the report; an error
// means the run could not be carried out at all.
var workloads = map[string]func(runConfig, *report) error{
	"regen":    runRegen,
	"serve":    runServe,
	"sessions": runSessions,
}

// run executes one workload and assembles the result line.
func run(cfg runConfig) (result, *report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, nil, err
	}
	rep := newReport(cfg)
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		return result{}, rep, err
	}
	if cfg.trace {
		if err := rep.tr.dump(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return result{}, rep, err
		}
	}
	return rep.result(cfg), rep, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one run measured and checked.
type report struct {
	values   map[string]float64
	classes  map[string]*classCount
	order    []string // class names in first-use order
	problems []string // correctness failures
	notes    []string
	tr       *tracer
	// reusedIDFaults is how many failed operations and problems the
	// sessions workload traces to a session ID handed out twice (see
	// reusedIDs).
	reusedIDFaults int64
}

// classCount is the failure accounting of one request class.
type classCount struct {
	Attempted int64 `json:"attempted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
}

func newReport(cfg runConfig) *report {
	return &report{
		values:  map[string]float64{},
		classes: map[string]*classCount{},
		tr:      newTracer(cfg.trace),
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds one class's tallies (called once per class per run, after
// the load generator has merged its per-client counts).
func (r *report) count(class string, c classCount) {
	cc, ok := r.classes[class]
	if !ok {
		cc = &classCount{}
		r.classes[class] = cc
		r.order = append(r.order, class)
	}
	cc.Attempted += c.Attempted
	cc.Succeeded += c.Succeeded
	cc.Failed += c.Failed
}

func (r *report) totals() (attempted, failed int64) {
	for _, c := range r.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// result renders the output line: every end-to-end metric, or in a
// traced run every per-layer metric, that the workload reports. A metric
// the workload did not produce reads 0.
func (r *report) result(cfg runConfig) result {
	attempted, failed := r.totals()
	if attempted > 0 {
		r.set("fail_ratio", float64(failed)/float64(attempted))
	}
	// Correct covers the outputs the program produced; operations that
	// failed outright are reported through Failed and fail_ratio.
	out := result{
		Correct:   len(r.problems) == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range catalog {
		if m.perLayer != cfg.trace || !m.reportedBy(cfg.workload) {
			continue
		}
		v := r.values[m.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = infValue
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// infValue stands in for a latency percentile that fell on a failed
// request (failures miss every latency limit); such a run is also
// marked incorrect.
const infValue = 1e12

// printInfo writes the run's context lines ahead of the result line:
// host fingerprint, seed, request-class accounting, notes and any
// correctness failures.
func printInfo(w *os.File, cfg runConfig, rep *report) {
	host := hostFingerprint()
	host["workload"] = cfg.workload
	host["seed"] = cfg.seed
	host["seconds"] = cfg.seconds
	host["trace"] = cfg.trace
	b, _ := json.Marshal(host)
	fmt.Fprintf(w, "# run %s\n", b)
	for _, name := range rep.order {
		b, _ := json.Marshal(rep.classes[name])
		fmt.Fprintf(w, "# class %s %s\n", name, b)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}
}

// hostFingerprint identifies the machine a run was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		model = cpuModel(string(b))
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// platformNames are the simulated platforms as the HTTP API names them.
var platformNames = []string{"haswell", "sabre"}

// clients is the load generator's concurrency: one closed-loop client
// (and at most one connection in use) per CPU.
func clients() int { return runtime.NumCPU() }
