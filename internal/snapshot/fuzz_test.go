package snapshot

import (
	"runtime"
	"testing"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/trace"
)

// fuzzPlatforms are the platforms every fuzz input is decoded for: a
// persisted snapshot does not name its platform, the key it is stored
// under does.
var fuzzPlatforms = []hw.Platform{hw.Haswell(), hw.Sabre()}

// captureBlobs returns persisted-form snapshots of a protected
// two-domain system and of a bare kernel booted with clone support, on
// plat: real captures, the fuzz corpus seeds.
func captureBlobs(tb testing.TB, plat hw.Platform) (sys, kern []byte) {
	tb.Helper()
	sink := trace.NewSink(0)
	s, err := core.NewSystem(core.Options{Platform: plat, Scenario: kernel.ScenarioProtected, Domains: 2, Tracer: sink})
	if err != nil {
		tb.Fatal(err)
	}
	var w enc.Writer
	if err := s.EncodeState(&w); err != nil {
		tb.Fatal(err)
	}
	d := deltasFrom(sink)
	sys = blob(kindSystem, &d, w.Bytes())
	k, err := kernel.Boot(plat, kernel.Config{Scenario: kernel.ScenarioProtected, CloneSupport: true})
	if err != nil {
		tb.Fatal(err)
	}
	w = enc.Writer{}
	if err := k.EncodeState(&w); err != nil {
		tb.Fatal(err)
	}
	var none bootDeltas
	return sys, blob(kindKernel, &none, w.Bytes())
}

// decodeBlob runs b through the decoders a fork or a disk hit uses:
// parseBlob, then core.DecodeSystem or kernel.DecodeKernel for plat.
func decodeBlob(plat hw.Platform, b []byte) error {
	if _, state, err := parseBlob(kindSystem, b); err == nil {
		_, err = core.DecodeSystem(core.Options{Platform: plat}, enc.NewReader(state))
		return err
	}
	_, state, err := parseBlob(kindKernel, b)
	if err == nil {
		_, err = kernel.DecodeKernel(plat, enc.NewReader(state))
	}
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
// is a page table: two bytes (its index and frame) decode into a
// 4 KiB entry array.
const fuzzBytesPerInputByte = 4096

// FuzzDecodeSnapshot feeds arbitrary bytes through the decoders that
// read persisted snapshots — bytes the process did not produce. The
// property: no panic, and no input makes a decode allocate more than
// twice what decoding a real capture of the same platform allocates,
// plus a constant per input byte. Counts are checked against their
// bounds before they size an allocation, and run-length frame lists
// against the machine's frame count, so no short input can claim a
// huge machine.
func FuzzDecodeSnapshot(f *testing.F) {
	fixed := make([]uint64, len(fuzzPlatforms))
	for i, plat := range fuzzPlatforms {
		sys, kern := captureBlobs(f, plat)
		f.Add(sys)
		f.Add(kern)
		for _, b := range [][]byte{sys, kern} {
			var err error
			if n := allocated(func() { err = decodeBlob(plat, b) }); n > fixed[i] {
				fixed[i] = n
			}
			if err != nil {
				f.Fatalf("%s: a real capture does not decode: %v", plat.Name, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i, plat := range fuzzPlatforms {
			limit := 2*fixed[i] + fuzzBytesPerInputByte*uint64(len(b))
			if n := allocated(func() { _ = decodeBlob(plat, b) }); n > limit {
				t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d", plat.Name, len(b), n, limit)
			}
		}
	})
}
