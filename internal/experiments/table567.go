package experiments

import (
	"fmt"

	"timeprotection/internal/core"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
	"timeprotection/internal/workload"
)

// Table5Result is the IPC microbenchmark (paper Table 5).
type Table5Result struct {
	Platform string
	Cycles   map[workload.IPCVariant]float64
}

// Render formats the result.
func (r Table5Result) Render() string {
	base := r.Cycles[workload.IPCOriginal]
	var rows [][]string
	for _, v := range workload.IPCVariants() {
		c := r.Cycles[v]
		rows = append(rows, []string{
			v.String(), fmt.Sprintf("%.0f", c), pct(c/base - 1),
		})
	}
	return renderTable(
		fmt.Sprintf("Table 5: one-way cross-AS IPC (cycles), %s (paper x86: 381/386/380/378; Arm: 344/391/395/389)", r.Platform),
		[]string{"Version", "Cycles", "Slowdown"}, rows)
}

// Table5 measures all IPC variants.
func Table5(cfg Config) (Table5Result, error) {
	cfg = cfg.withDefaults()
	res := Table5Result{Platform: cfg.Platform.Name, Cycles: map[workload.IPCVariant]float64{}}
	for _, v := range workload.IPCVariants() {
		c, err := workload.MeasureIPC(cfg.Platform, v, cfg.Tracer)
		if err != nil {
			return res, fmt.Errorf("%v: %w", v, err)
		}
		res.Cycles[v] = c
	}
	return res, nil
}

// Table6Result is the domain-switch cost without padding, for receivers
// exercising different cache levels (paper Table 6).
type Table6Result struct {
	Platform string
	// Micros[scenario][workload] is the mean switch-away latency in us.
	Micros    map[kernel.Scenario]map[string]float64
	Workloads []string
}

// Render formats the result.
func (r Table6Result) Render() string {
	var rows [][]string
	for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected} {
		row := []string{sc.String()}
		for _, w := range r.Workloads {
			row = append(row, fmt.Sprintf("%.2f", r.Micros[sc][w]))
		}
		rows = append(rows, row)
	}
	return renderTable(
		fmt.Sprintf("Table 6: domain-switch cost, no padding (us), %s (paper x86: raw 0.18-0.5, full 271, prot 30; Arm: raw 0.7-1.6, full 414, prot 27-31)", r.Platform),
		append([]string{"Mode"}, r.Workloads...), rows)
}

// table6Receiver walks a buffer of the given size each step.
type table6Receiver struct {
	base  uint64
	lines int
	exec  bool
	pos   int
}

func (p *table6Receiver) Step(e *kernel.Env) bool {
	if p.lines == 0 {
		e.Spin(500)
		return true
	}
	for i := 0; i < 64; i++ {
		v := p.base + uint64(p.pos%p.lines)*64
		if p.exec {
			e.Exec(v)
		} else {
			e.Load(v)
		}
		p.pos++
	}
	return true
}

// Table6 measures mean switch-away cost per scenario and receiver.
func Table6(cfg Config) (Table6Result, error) {
	cfg = cfg.withDefaults()
	plat := cfg.Platform
	h := plat.Hierarchy
	type wl struct {
		name  string
		bytes int
		exec  bool
	}
	wls := []wl{
		{"Idle", 0, false},
		{"L1-D", h.L1D.Size, false},
		{"L1-I", h.L1I.Size, true},
		{"L2", h.L2.Size, false},
	}
	if h.L3.Size > 0 {
		wls = append(wls, wl{"L3", h.L3.Size / 4, false})
	}
	res := Table6Result{Platform: plat.Name, Micros: map[kernel.Scenario]map[string]float64{}}
	for _, w := range wls {
		res.Workloads = append(res.Workloads, w.name)
	}
	for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected} {
		res.Micros[sc] = map[string]float64{}
		for _, w := range wls {
			// Each cell is deterministic in (platform, scenario, workload);
			// untraced cells are memoized process-wide.
			var cell float64
			var err error
			if cfg.Tracer == nil {
				cell, err = snapshot.Memo(fmt.Sprintf("table6|%d|%s|%+v", sc, w.name, plat), func() (float64, error) {
					return table6Cell(plat, sc, w.bytes, w.exec, nil)
				})
			} else {
				cell, err = table6Cell(plat, sc, w.bytes, w.exec, cfg.Tracer)
			}
			if err != nil {
				return res, fmt.Errorf("table6 (%v, %s): %w", sc, w.name, err)
			}
			res.Micros[sc][w.name] = cell
		}
	}
	return res, nil
}

// table6Cell measures one (scenario, workload) cell of Table 6 on a
// forked system.
func table6Cell(plat hw.Platform, sc kernel.Scenario, wsBytes int, exec bool, tr *trace.Sink) (float64, error) {
	sys, err := snapshot.NewSystem(core.Options{Platform: plat, Scenario: sc, Tracer: tr})
	if err != nil {
		return 0, err
	}
	pages := (wsBytes + memory.PageSize - 1) / memory.PageSize
	recv := &table6Receiver{base: 0x1000_0000, exec: exec}
	if pages > 0 {
		if _, err := sys.MapBuffer(0, 0x1000_0000, pages); err != nil {
			return 0, err
		}
		recv.lines = pages * memory.PageSize / 64
	}
	if _, err := sys.Spawn(0, "receiver", 10, recv); err != nil {
		return 0, err
	}
	if _, err := sys.Spawn(1, "idle-domain", 10, kernel.ProgramFunc(func(e *kernel.Env) bool {
		e.Spin(500)
		return true
	})); err != nil {
		return 0, err
	}
	// Sample the switch cost after ticks where the receiver's domain was
	// left (current domain is now the idle one).
	var sum float64
	var n int
	last := uint64(0)
	for i := 0; i < 64; i++ {
		sys.RunCoreFor(0, sys.Timeslice())
		m := sys.K.Metrics
		if m.DomainSwitches == last {
			continue
		}
		last = m.DomainSwitches
		if i < 8 { // warm-up
			continue
		}
		if t := sys.K.CurrentThread(0); t != nil && t.Domain == 1 {
			sum += plat.CyclesToMicros(m.LastDomainSwitchCycles)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no switches sampled")
	}
	return sum / float64(n), nil
}

// Table7Result is the kernel clone/destroy cost against the monolithic
// process-creation comparator (paper Table 7).
type Table7Result struct {
	Platform       string
	CloneMicros    float64
	DestroyMicros  float64
	ForkExecMicros float64
}

// Render formats the result.
func (r Table7Result) Render() string {
	rows := [][]string{
		{"Kernel_Clone", us(r.CloneMicros)},
		{"Kernel destroy", us(r.DestroyMicros)},
		{"fork+exec (monolithic comparator)", us(r.ForkExecMicros)},
	}
	return renderTable(
		fmt.Sprintf("Table 7: kernel image lifecycle (us), %s (paper x86: clone 79, destroy 0.6, fork+exec 257; Arm: 608/67/4300)", r.Platform),
		[]string{"Operation", "us"}, rows)
}

// Table7 measures clone, destroy and the fork+exec comparator. Both
// measurements are deterministic in the platform and observed by
// cfg.Tracer; untraced runs are memoized.
func Table7(cfg Config) (Table7Result, error) {
	cfg = cfg.withDefaults()
	plat := cfg.Platform
	res := Table7Result{Platform: plat.Name}
	var cd [2]float64
	var err error
	if cfg.Tracer == nil {
		cd, err = snapshot.Memo(fmt.Sprintf("table7|%+v", plat), func() ([2]float64, error) {
			return table7CloneDestroy(plat, nil)
		})
	} else {
		cd, err = table7CloneDestroy(plat, cfg.Tracer)
	}
	if err != nil {
		return res, err
	}
	res.CloneMicros, res.DestroyMicros = cd[0], cd[1]
	fe, err := workload.ForkExecCost(plat, cfg.Tracer)
	if err != nil {
		return res, err
	}
	res.ForkExecMicros = plat.CyclesToMicros(fe)
	return res, nil
}

// table7CloneDestroy measures kernel clone and destroy on a forked
// kernel, returning {clone, destroy} in microseconds.
func table7CloneDestroy(plat hw.Platform, tr *trace.Sink) ([2]float64, error) {
	var res [2]float64
	k, err := snapshot.BootKernel(plat, kernel.Config{Scenario: kernel.ScenarioProtected, CloneSupport: true}, tr)
	if err != nil {
		return res, err
	}
	pool := memory.NewPool(k.M.Alloc, memory.SplitColours(plat.Colours(), 2)[0])
	km, err := k.NewKernelMemory(pool)
	if err != nil {
		return res, err
	}
	t0 := k.M.Cores[0].Now
	img, err := k.Clone(0, k.BootImage(), km)
	if err != nil {
		return res, err
	}
	res[0] = plat.CyclesToMicros(k.M.Cores[0].Now - t0)
	t0 = k.M.Cores[0].Now
	if err := k.DestroyImage(0, img); err != nil {
		return res, err
	}
	res[1] = plat.CyclesToMicros(k.M.Cores[0].Now - t0)
	return res, nil
}
