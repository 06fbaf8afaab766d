package channel

import (
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
)

// TestAdvanceToMatchesStepping: a chunk count is an exact position. A
// fresh attack advanced to the chunk count a stepped one reached holds
// the identical dataset; AdvanceTo refuses a count behind the attack,
// and one past where the attack stops, after running to that stop.
func TestAdvanceToMatchesStepping(t *testing.T) {
	s := Spec{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw, Samples: 16, Seed: 3}
	prepare := map[string]func() (*Interactive, error){
		"l1d":       func() (*Interactive, error) { return PrepareIntraCore(s, L1D) },
		"interrupt": func() (*Interactive, error) { return PrepareInterruptChannel(s, false) },
	}
	for name, prep := range prepare {
		t.Run(name, func(t *testing.T) {
			stepped, err := prep()
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			for _, n := range []int{1, 5, 2} {
				if _, err := stepped.StepSamples(n, nil); err != nil {
					t.Fatalf("StepSamples(%d): %v", n, err)
				}
			}
			fresh, err := prep()
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			if !fresh.AdvanceTo(stepped.Chunks()) {
				t.Fatalf("AdvanceTo(%d) stopped at %d", stepped.Chunks(), fresh.Chunks())
			}
			a, b := fresh.Dataset().Since(0), stepped.Dataset().Since(0)
			if len(a) != len(b) {
				t.Fatalf("advanced attack holds %d samples, stepped %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sample %d = %+v, stepped %+v", i, a[i], b[i])
				}
			}
			if fresh.AdvanceTo(fresh.Chunks() - 1) {
				t.Error("AdvanceTo a chunk behind the attack reported success")
			}
			if fresh.AdvanceTo(1 << 30) {
				t.Error("AdvanceTo past the attack's end reported success")
			}
			if !fresh.Done() {
				t.Errorf("attack stopped at chunk %d without completing", fresh.Chunks())
			}
		})
	}
}
