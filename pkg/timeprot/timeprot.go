// Package timeprot is the public facade of the time-protection
// reproduction: machine construction, security-domain setup, covert- and
// side-channel measurement, and mutual-information estimation, with the
// paper's time-protection mechanisms toggled through functional options.
//
// It is the only package external code needs — everything under
// internal/ stays internal. The five example programs under examples/
// are written exclusively against this API:
//
//	plat := timeprot.Haswell()
//	ds, err := timeprot.MeasureChannel(timeprot.L1D,
//		timeprot.WithPlatform(plat),
//		timeprot.WithoutProtection())
//	r := timeprot.Analyze(ds, 1)
//	if r.Leak() { ... }
//
// Defaults: Haswell platform, time protection on, 150 samples, seed 42,
// two domains. Seed 42 is an option-declaration default — WithSeed(0)
// selects the genuine seed 0.
//
// For programs that want results rather than measurements, the daemon
// front-end (cmd/tpserved) serves every registry artefact over
// HTTP/JSON, byte-identical to cmd/tpbench for the same config, with
// caching, durable storage and — via -peers/-self — consistent-hash
// sharding across a statically-membered cluster. This package stays a
// single-process measurement API; the serving and clustering layers
// live behind the daemon, not behind Go symbols.
package timeprot

import (
	"math/rand"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/trace"
)

// Platform describes one simulated evaluation machine.
type Platform = hw.Platform

// Haswell returns the x86 evaluation platform (paper Table 1).
func Haswell() Platform { return hw.Haswell() }

// Sabre returns the Arm evaluation platform (paper Table 1).
func Sabre() Platform { return hw.Sabre() }

// PlatformByName resolves "haswell" or "sabre".
func PlatformByName(name string) (Platform, bool) { return hw.PlatformByName(name) }

// Scenario selects the kernel's time-protection posture.
type Scenario = kernel.Scenario

// Scenarios, re-exported from the kernel.
const (
	// ScenarioRaw is the unmitigated baseline.
	ScenarioRaw = kernel.ScenarioRaw
	// ScenarioFullFlush resets all architected state on every switch.
	ScenarioFullFlush = kernel.ScenarioFullFlush
	// ScenarioProtected is full time protection: cloned coloured
	// kernels, targeted flush, deterministic shared data, partitioned
	// interrupts.
	ScenarioProtected = kernel.ScenarioProtected
)

// settings collects everything the facade's constructors and
// measurement functions can configure.
type settings struct {
	platform        Platform
	scenario        Scenario
	samples         int
	seed            int64
	domains         int
	cloneSupport    bool
	traceSize       int
	timesliceMicros float64
	padMicros       float64
}

func newSettings(opts []Option) settings {
	// Option-declaration defaults: this is where the conventional seed
	// of 42 lives (internal canonicalisation never rewrites a seed).
	s := settings{
		platform: hw.Haswell(),
		scenario: kernel.ScenarioProtected,
		samples:  150,
		seed:     42,
		domains:  2,
	}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// tracer returns the event sink WithTrace asked for, or nil.
func (s *settings) tracer() *trace.Sink {
	if s.traceSize <= 0 {
		return nil
	}
	return trace.NewSink(s.traceSize)
}

// Option is a functional configuration knob shared by NewSystem, Boot
// and the Measure* functions.
type Option func(*settings)

// WithPlatform selects the simulated machine (default Haswell).
func WithPlatform(p Platform) Option { return func(s *settings) { s.platform = p } }

// WithProtection enables full time protection (the default).
func WithProtection() Option { return func(s *settings) { s.scenario = kernel.ScenarioProtected } }

// WithoutProtection selects the unmitigated baseline kernel.
func WithoutProtection() Option { return func(s *settings) { s.scenario = kernel.ScenarioRaw } }

// WithScenario selects an explicit scenario (for sweeping raw vs
// protected in one loop).
func WithScenario(sc Scenario) Option { return func(s *settings) { s.scenario = sc } }

// WithSamples sets the per-channel sample count (default 150).
func WithSamples(n int) Option { return func(s *settings) { s.samples = n } }

// WithSeed sets the deterministic seed (default 42; 0 is a valid seed).
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithDomains sets the number of security domains NewSystem partitions
// the machine into (default 2).
func WithDomains(n int) Option { return func(s *settings) { s.domains = n } }

// WithKernelCloning builds the colour-ready kernel (per-ASID kernel
// mappings) so Boot's kernel can Clone per-domain images.
func WithKernelCloning() Option { return func(s *settings) { s.cloneSupport = true } }

// WithTrace attaches a machine-wide trace sink (Kernel.Tracer) whose
// per-core rings keep the last n events each; its OnEvent hook sees
// every event as it is emitted. A traced system or kernel boots cold
// instead of forking a cached snapshot, since boot-time events cannot
// be replayed.
func WithTrace(n int) Option { return func(s *settings) { s.traceSize = n } }

// WithTimeslice sets the preemption period in simulated microseconds.
func WithTimeslice(us float64) Option { return func(s *settings) { s.timesliceMicros = us } }

// WithPadding pads every domain switch to this worst-case latency in
// simulated microseconds (Requirement 4).
func WithPadding(us float64) Option { return func(s *settings) { s.padMicros = us } }

// Dataset is a channel measurement: (input symbol, output observation)
// pairs feeding the mutual-information estimators.
type Dataset = mi.Dataset

// Result is a mutual-information verdict: the estimate M against the
// zero-leakage shuffle bound M0.
type Result = mi.Result

// Analyze estimates the mutual information of a dataset and its
// zero-leakage bound, seeding the shuffle test deterministically.
func Analyze(ds *Dataset, seed int64) Result {
	return mi.Analyze(ds, rand.New(rand.NewSource(seed)))
}

// Estimate returns the continuous MI estimate in bits.
func Estimate(ds *Dataset) float64 { return mi.Estimate(ds) }

// Millibits converts bits to millibits.
func Millibits(bits float64) float64 { return mi.Millibits(bits) }
