package channel

import (
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
)

// The channels in this file are the ones time protection CANNOT close —
// the repository's reproduction of the paper's §3.1 threat-model
// restrictions and §6.1 hardware wishlist.

func TestBusChannelSurvivesProtection(t *testing.T) {
	for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioProtected} {
		ds, err := RunBusChannel(spec(hw.Haswell(), sc), false)
		if err != nil {
			t.Fatal(err)
		}
		r := analyze(t, ds)
		if !r.Leak() {
			t.Errorf("bus channel closed under %v: %v", sc, r)
		}
	}
}

func TestBusChannelMBAAttenuatesOnly(t *testing.T) {
	open, err := RunBusChannel(spec(hw.Haswell(), kernel.ScenarioRaw), false)
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := RunBusChannel(spec(hw.Haswell(), kernel.ScenarioRaw), true)
	if err != nil {
		t.Fatal(err)
	}
	rOpen := analyze(t, open)
	rThrottled := analyze(t, throttled)
	if !rThrottled.Leak() {
		t.Errorf("MBA closed the channel — its enforcement is approximate and must not: %v", rThrottled)
	}
	if rThrottled.M >= rOpen.M {
		t.Errorf("MBA should attenuate: %.3f vs %.3f", rThrottled.M, rOpen.M)
	}
}

func TestSMTChannelSurvivesEverything(t *testing.T) {
	for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioFullFlush, kernel.ScenarioProtected} {
		ds, err := RunSMTChannel(Spec{Platform: hw.HaswellSMT(), Scenario: sc, Samples: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		r := analyze(t, ds)
		if !r.Leak() {
			t.Errorf("hyperthread channel closed under %v: %v", sc, r)
		}
	}
}

func TestDRAMChannelSurvivesProtection(t *testing.T) {
	for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioProtected} {
		ds, err := RunDRAMChannel(Spec{Platform: hw.Haswell(), Scenario: sc, Samples: 120, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		r := analyze(t, ds)
		if !r.Leak() {
			t.Errorf("DRAM row-buffer channel closed under %v: %v", sc, r)
		}
	}
}

// Sanity: a sender that does nothing produces no bus channel (the
// receiver's own noise stays under the shuffle bound).
func TestBusChannelNeedsASender(t *testing.T) {
	s := spec(hw.Haswell(), kernel.ScenarioRaw)
	sys, err := buildSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	bus := hw.NewMemoryBus(1000, 4, 80)
	sys.K.M.AttachBus(bus)
	rbuf, err := NewProbeBuffer(sys, 1, receiverBufBase, 256)
	if err != nil {
		t.Fatal(err)
	}
	var lines []uint64
	all := rbuf.AllLines()
	for i := 0; i < len(all); i += 5 {
		lines = append(lines, all[i])
	}
	// A mute sender: its symbol sequence advances but its behaviour is
	// symbol-independent, so the receiver's measurements must carry no
	// information about it.
	mute := newSlotSender(sys, 4, 1, 2000, func(*kernel.Env, int) {})
	pos := 0
	recv := newBurstReceiver(mute, 100, 64, 1500, func(e *kernel.Env) {
		for i := 0; i < 48; i++ {
			e.Load(lines[pos%len(lines)])
			pos++
		}
	})
	ds, err := runConcurrent(sys, "mute", []int{0, 1}, mute, recv)
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, ds)
	if r.Leak() {
		t.Errorf("mute sender produced a leak: %v", r)
	}
}
