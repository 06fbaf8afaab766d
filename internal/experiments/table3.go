package experiments

import (
	"fmt"
	"math/rand"

	"timeprotection/internal/channel"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
)

// Table3Row is one resource's channel measurement across the three
// scenarios of §5.2.
type Table3Row struct {
	Resource  string
	Raw       mi.Result
	FullFlush mi.Result
	Protected mi.Result
}

// Table3Result is the intra-core channel sweep for one platform.
type Table3Result struct {
	Platform string
	Rows     []Table3Row
	// PrefetchOff is the §5.3.2 follow-up: the protected x86 L2 channel
	// re-measured with the data prefetcher disabled (present only on
	// platforms with a private L2).
	PrefetchOff *mi.Result
}

// Render formats the sweep like the paper's Table 3 (values in mb).
func (r Table3Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		leak := func(m mi.Result) string {
			s := mb(m.M)
			if m.Leak() {
				s += "*"
			}
			return s
		}
		rows = append(rows, []string{
			row.Resource,
			leak(row.Raw),
			leak(row.FullFlush), mb(row.FullFlush.M0),
			leak(row.Protected), mb(row.Protected.M0),
		})
	}
	out := renderTable(
		fmt.Sprintf("Table 3: intra-core channels (mb), %s — * marks a definite channel (M > M0)", r.Platform),
		[]string{"Cache", "Raw M", "FullFl M", "M0", "Prot M", "M0"}, rows)
	if r.PrefetchOff != nil {
		out += fmt.Sprintf("L2 protected + data prefetcher disabled (MSR 0x1A4): %v (paper: 6.4 mb)\n", *r.PrefetchOff)
	}
	return out
}

// table3Cell measures one (resource, scenario) cell: run the channel
// (memoized by channel.RunIntraCore when untraced), then estimate M and
// M0. mi.Analyze draws exactly one value from rng, the ShuffleBound
// base seed, so every cell consumes the sweep's stream identically.
func table3Cell(s channel.Spec, r channel.Resource, rng *rand.Rand) (mi.Result, error) {
	ds, err := channel.RunIntraCore(s, r)
	if err != nil {
		return mi.Result{}, err
	}
	return mi.Analyze(ds, rng), nil
}

// Table3 measures every intra-core channel under all three scenarios.
func Table3(cfg Config) (Table3Result, error) {
	cfg = cfg.withDefaults()
	res := Table3Result{Platform: cfg.Platform.Name}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, r := range channel.Resources(cfg.Platform) {
		row := Table3Row{Resource: r.String()}
		for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected} {
			m, err := table3Cell(channel.Spec{
				Platform: cfg.Platform, Scenario: sc, Samples: cfg.Samples, Seed: cfg.Seed, Tracer: cfg.Tracer,
			}, r, rng)
			if err != nil {
				return res, fmt.Errorf("%v %v: %w", r, sc, err)
			}
			switch sc {
			case kernel.ScenarioRaw:
				row.Raw = m
			case kernel.ScenarioFullFlush:
				row.FullFlush = m
			default:
				row.Protected = m
			}
		}
		res.Rows = append(res.Rows, row)
	}
	if cfg.Platform.Hierarchy.L2Private {
		m, err := table3Cell(channel.Spec{
			Platform: cfg.Platform, Scenario: kernel.ScenarioProtected,
			Samples: cfg.Samples, Seed: cfg.Seed, DisablePrefetcher: true,
			Tracer: cfg.Tracer,
		}, channel.L2, rng)
		if err != nil {
			return res, err
		}
		res.PrefetchOff = &m
	}
	return res, nil
}
