package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
)

func encodeKernel(t *testing.T, k *Kernel) []byte {
	t.Helper()
	var w enc.Writer
	if err := k.EncodeState(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestSetTimesliceMatchesBoot: a kernel booted with the default period
// and set to another one encodes exactly like a kernel booted with that
// period, so the period need not be part of a boot snapshot.
func TestSetTimesliceMatchesBoot(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		for _, sc := range []Scenario{ScenarioRaw, ScenarioFullFlush, ScenarioProtected} {
			for _, cycles := range []uint64{0, testSlice, plat.MicrosToCycles(2000)} {
				t.Run(fmt.Sprintf("%s/%v/%d", plat.Name, sc, cycles), func(t *testing.T) {
					cfg := Config{Scenario: sc, CloneSupport: sc == ScenarioProtected}
					set, err := Boot(plat, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := set.SetTimeslice(cycles); err != nil {
						t.Fatal(err)
					}
					cfg.TimesliceCycles = cycles
					booted, err := Boot(plat, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeKernel(t, set), encodeKernel(t, booted)) {
						t.Fatal("SetTimeslice state differs from a boot with that timeslice")
					}
				})
			}
		}
	}
}

// TestSetTimesliceAfterRunFails: once a core has ticked the period is
// part of the schedule, and changing it is refused.
func TestSetTimesliceAfterRunFails(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	mustThread(t, k, procs[0], "c", 10, 0, &counter{base: 0x400000})
	if err := k.SetTimeslice(2 * testSlice); err != nil {
		t.Fatalf("SetTimeslice before dispatch: %v", err)
	}
	runFor(k, 0, 3*k.Timeslice())
	if err := k.SetTimeslice(testSlice); err == nil {
		t.Fatal("SetTimeslice after the kernel ran returned no error")
	}
	if got := k.Timeslice(); got != 2*testSlice {
		t.Fatalf("Timeslice = %d after a refused change, want %d", got, 2*testSlice)
	}
}
