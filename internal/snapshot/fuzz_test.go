package snapshot

import (
	"runtime"
	"testing"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
)

// fuzzPlatforms are the platforms every fuzz input is decoded for: a
// captured state does not name its platform, the configuration key it
// is registered under does.
var fuzzPlatforms = []hw.Platform{hw.Haswell(), hw.Sabre()}

// captureStates returns the encoded states of a protected two-domain
// system and of a bare kernel booted with clone support, on plat: real
// captures, the fuzz corpus seeds.
func captureStates(tb testing.TB, plat hw.Platform) (sys, kern []byte) {
	tb.Helper()
	s, err := core.NewSystem(core.Options{Platform: plat, Scenario: kernel.ScenarioProtected, Domains: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var w enc.Writer
	if err := s.EncodeState(&w); err != nil {
		tb.Fatal(err)
	}
	sys = w.Bytes()
	k, err := kernel.Boot(plat, kernel.Config{Scenario: kernel.ScenarioProtected, CloneSupport: true})
	if err != nil {
		tb.Fatal(err)
	}
	w = enc.Writer{}
	if err := k.EncodeState(&w); err != nil {
		tb.Fatal(err)
	}
	return sys, w.Bytes()
}

// decodeSystem and decodeKernel are the decoders a fork runs on a
// registered state.
func decodeSystem(plat hw.Platform, b []byte) error {
	_, err := core.DecodeSystem(core.Options{Platform: plat}, enc.NewReader(b))
	return err
}

func decodeKernel(plat hw.Platform, b []byte) error {
	_, err := kernel.DecodeKernel(plat, enc.NewReader(b))
	return err
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzBytesPerInputByte bounds what one input byte may make a decoder
// allocate beyond a machine's fixed cost. The largest legitimate ratio
// is a page table's entry array: a table no page has landed in shares
// an empty one, so each 4 KiB array costs the input a table entry and
// a page entry, at least five bytes (about 820 bytes per byte, with
// the table's bookkeeping).
const fuzzBytesPerInputByte = 1024

// FuzzDecodeSnapshot feeds arbitrary bytes through the decoders that
// turn a registered state back into a machine. The registry decodes
// only states its own process encoded, so these bytes never come from
// outside; the fuzz keeps the decoders strict anyway, because a codec
// bug must surface as an error. The property: no panic, and no input
// makes a decode allocate more than twice what decoding a real capture
// of the same platform allocates, plus a constant per input byte.
// Counts are checked against their bounds before they size an
// allocation, frame lists against the machine's frame count, and a
// page table's entries are allocated only when a page lands in it, so
// no short input can claim a huge machine.
func FuzzDecodeSnapshot(f *testing.F) {
	fixed := make([]uint64, len(fuzzPlatforms))
	for i, plat := range fuzzPlatforms {
		sys, kern := captureStates(f, plat)
		f.Add(sys)
		f.Add(kern)
		var errSys, errKern error
		fixed[i] = max(
			allocated(func() { errSys = decodeSystem(plat, sys) }),
			allocated(func() { errKern = decodeKernel(plat, kern) }),
		)
		if errSys != nil || errKern != nil {
			f.Fatalf("%s: a real capture does not decode: %v, %v", plat.Name, errSys, errKern)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i, plat := range fuzzPlatforms {
			limit := 2*fixed[i] + fuzzBytesPerInputByte*uint64(len(b))
			for _, decode := range []func(hw.Platform, []byte) error{decodeSystem, decodeKernel} {
				if n := allocated(func() { _ = decode(plat, b) }); n > limit {
					t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d", plat.Name, len(b), n, limit)
				}
			}
		}
	})
}
