package snapshot

import (
	"testing"

	"timeprotection/internal/core"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/trace"
)

// TestUndecodableStateIsAnError: the registry holds only states its own
// process encoded, so one that fails to decode is a codec bug. NewSystem,
// ForkForStreaming and BootKernel return it as an error; none of them
// boots cold, forks or counts a fallback.
func TestUndecodableStateIsAnError(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw}
	cfg := kernel.Config{Scenario: kernel.ScenarioRaw}
	for _, key := range []Key{KeyOf("sys", opts.BootShape()), KeyOf("kern", opts.Platform, cfg)} {
		if _, _, err := registry.Do(key, func() (*entry, error) {
			return &entry{deltas: &bootDeltas{}, state: []byte("not a machine")}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := Stats()
	for _, c := range []struct {
		name string
		fork func() (any, error)
	}{
		{"NewSystem", func() (any, error) { return NewSystem(opts) }},
		{"ForkForStreaming", func() (any, error) { return ForkForStreaming(opts) }},
		{"BootKernel", func() (any, error) { return BootKernel(opts.Platform, cfg, trace.NewSink(0)) }},
	} {
		if v, err := c.fork(); err == nil {
			t.Errorf("%s: an undecodable registered state returned %T and no error", c.name, v)
		}
	}
	if got := Stats(); got != before {
		t.Fatalf("undecodable states moved the counters: %+v -> %+v", before, got)
	}
}
