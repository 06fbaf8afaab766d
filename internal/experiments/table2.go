package experiments

import (
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// Table2Result holds worst-case cache-flush costs in microseconds
// (paper Table 2): direct = latency of the flush operations themselves
// with all D-lines dirty; indirect = one-off slowdown of an application
// whose working set is the size of the flushed cache.
type Table2Result struct {
	Platform                 string
	L1Direct, L1Indirect     float64
	FullDirect, FullIndirect float64
}

// Render formats the result against the paper's numbers.
func (r Table2Result) Render() string {
	rows := [][]string{
		{"L1 only", us(r.L1Direct), us(r.L1Indirect), us(r.L1Direct + r.L1Indirect)},
		{"Full flush", us(r.FullDirect), us(r.FullIndirect), us(r.FullDirect + r.FullIndirect)},
	}
	return renderTable(
		fmt.Sprintf("Table 2: worst-case cache flush cost (us), %s (paper x86: L1 27, full 520; Arm: L1 45, full 1150)", r.Platform),
		[]string{"Cache", "direct", "indirect", "total"}, rows)
}

// Table2 measures the flush costs on one platform.
func Table2(cfg Config) (Table2Result, error) {
	cfg = cfg.withDefaults()
	plat := cfg.Platform
	res := Table2Result{Platform: plat.Name}

	measure := func(full bool) (direct, indirect float64, err error) {
		// Each measurement is deterministic in (platform, full); untraced
		// runs are memoized, and the machine is forked either way.
		if cfg.Tracer == nil {
			r, err := snapshot.Memo(snapshot.KeyOf("table2", full, plat), func() ([2]float64, error) {
				d, i, err := measureFlush(plat, full, nil)
				return [2]float64{d, i}, err
			})
			return r[0], r[1], err
		}
		return measureFlush(plat, full, cfg.Tracer)
	}

	var err error
	if res.L1Direct, res.L1Indirect, err = measure(false); err != nil {
		return res, err
	}
	if res.FullDirect, res.FullIndirect, err = measure(true); err != nil {
		return res, err
	}
	return res, nil
}

// measureFlush performs one Table 2 measurement on a freshly forked
// machine.
func measureFlush(plat hw.Platform, full bool, tr *trace.Sink) (direct, indirect float64, err error) {
	k, err := snapshot.BootKernel(plat, kernel.Config{Scenario: kernel.ScenarioRaw}, tr)
	if err != nil {
		return 0, 0, err
	}
	m := k.M
	lineSize := uint64(plat.Hierarchy.L1D.LineSize)
	// Application working set: the size of the flushed cache.
	wsBytes := plat.Hierarchy.L1D.Size
	if full {
		llc := m.Hier.LLC()
		wsBytes = llc.Sets() * llc.LineSize() * llc.Ways()
	}
	pool := memory.NewPool(m.Alloc, nil)
	frames, err := pool.AllocN((wsBytes + memory.PageSize - 1) / memory.PageSize)
	if err != nil {
		return 0, 0, err
	}
	pass := func(write bool) uint64 {
		t0 := m.Cores[0].Now
		for _, f := range frames {
			for off := uint64(0); off < memory.PageSize; off += lineSize {
				if write {
					m.PhysStore(0, f.Addr()+off)
				} else {
					m.PhysLoad(0, f.Addr()+off)
				}
			}
		}
		return m.Cores[0].Now - t0
	}
	// Warm up, then dirty every line (the worst case for write-back).
	pass(true)
	warm := pass(false)
	pass(true)
	// Direct cost: the flush itself.
	t0 := m.Cores[0].Now
	if full {
		k.FullFlush(0)
	} else {
		k.FlushOnCore(0, k.BootImage())
	}
	direct = plat.CyclesToMicros(m.Cores[0].Now - t0)
	// Indirect cost: the application's one-off refill slowdown.
	cold := pass(false)
	if cold > warm {
		indirect = plat.CyclesToMicros(cold - warm)
	}
	return direct, indirect, nil
}
