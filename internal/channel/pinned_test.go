package channel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
)

// pinnedDigests holds the SHA-256 of every channel's (symbol, value
// bits) sequence at pinnedSpec's sample count. A change to how a
// channel is driven (sender, receiver, chunking, co-scheduling) that
// moves even one sample moves its digest; a change that should not
// alter simulated behaviour must leave every entry as it is.
var pinnedDigests = map[string]string{
	"haswell/intracore/L1-D/raw":       "24:5a9bdf4de03b13998687bbbeb423595d407c05e6b296a5a5e1e9a41a833c1b7d",
	"haswell/intracore/L1-D/protected": "24:ba13f779ed10650d8b677f29ccad8af76713fbc4130fbaa2ea9a9f91d9a03908",
	"haswell/intracore/L1-I/raw":       "24:54630352b75bd5633a50558afb7e1cc8635dcf076da4e614ef1d35f28d70b241",
	"haswell/intracore/L1-I/protected": "24:19e005647f4899f8cd5c931027225729ba9ce01a9a83ba5dbf86878ff8b5408f",
	"haswell/intracore/TLB/raw":        "24:a2e90611c35909a679a973e7513c5d926287a4902276a8acdef6e182ed1a405e",
	"haswell/intracore/TLB/protected":  "24:44a3a3cdeb3fda7171f2b88c93404f1bc65f3b07a98e6fb14ebd520cfb9e44ea",
	"haswell/intracore/BTB/raw":        "24:c00e11a766ed020faeabb847b94dbdf3346b71c55f760a159c5b40e736967680",
	"haswell/intracore/BTB/protected":  "24:f405d71588376b5653cebddc2dc9235977208381129dad3578cb3fa4ea89bc7e",
	"haswell/intracore/BHB/raw":        "24:0ba21480757779f4a2d67be1f1f87328b59dd993e120d588b3267140785bdf38",
	"haswell/intracore/BHB/protected":  "24:529ae6af2588410006801fa26eb8a866c59fa2c1a77b48288bfe9f25d50b63f7",
	"haswell/intracore/L2/raw":         "24:5df8b7e9c34e6247e289943b2942359f86c6dde11ab449fd93c8d2f4231988e5",
	"haswell/intracore/L2/protected":   "24:89e1fc7b6f635cf5b52448be2736f36a1568d8d16c3a3ea5f0cf2afb65aa292d",
	"haswell/kernel/raw":               "24:7c63b7ad30f06cbc443fb3e7342cfc42a44f98235242239a0a51364f57ca2745",
	"haswell/flush/online":             "24:9d792a5b1861412c55f30d65418fe95df1ccf0480be1cd006000194bc8bd81a5",
	"haswell/flush/offline":            "24:0adfaa7c0ac405026384df8f193575c00e2d1526420184694e869cf060035bfe",
	"haswell/interrupt/open":           "24:27f6539c4f4882063f6f198f95342dcd1c7f9dd1de8e094c43b72b76b416f941",
	"haswell/interrupt/partitioned":    "24:0d63f291057654ef184039da2467387213dbde0acdfebfba351a20986cdf9a4d",
	"haswell/bus/raw":                  "24:d282cb2e8595f1c77fea1004b761430a29968514c8112f24b4de75132caf6488",
	"haswell/bus/mba":                  "24:ffe868af967409c5a97d7dd6f4a90562a3d58b6ecce46dcd548053e69c839c23",
	"haswell/dram/raw":                 "24:dccbe69b7d7c0ecf0ed9c9575864ffbf53531ded9b89927b588f8038f889d335",
	"haswell-smt/smt/raw":              "24:29e814acfe8cf7cb45253c85ca76aab8b78fb419dba9fe763099bcc4b8e9a617",
	"sabre/intracore/L1-D/raw":         "24:8aed7b75f2cf5c6610c6f1d781f2dd6fc11c34721c7e21e3913e91a88e07e80a",
	"sabre/intracore/L1-D/protected":   "24:7e786438b2176a5e81df08aa6528f744f169974ca3c266869ed5532d474da66f",
	"sabre/intracore/L1-I/raw":         "24:2b3bfca58bf17dca322482ad2dab1c27a2a52a3e87d1e3d7b38c85812037c9b6",
	"sabre/intracore/L1-I/protected":   "24:7e786438b2176a5e81df08aa6528f744f169974ca3c266869ed5532d474da66f",
	"sabre/intracore/TLB/raw":          "24:18efc11d85fbcb07c4d078e5fdad636427428d8583aecef4a5b5192c275e54f0",
	"sabre/intracore/TLB/protected":    "24:d6a56993ce693a91ab5bd798bc7f812a374eb38d79ec9a84e933235887bad594",
	"sabre/intracore/BTB/raw":          "24:244127989e1f21b23277bdfa7111ff544d1d123899e5a0a4cc7dbb94bb7e9ebd",
	"sabre/intracore/BTB/protected":    "24:8ab545115087c2546d3787a9bbfa65073e406057c5f0c1f3f40d0e68da5138a5",
	"sabre/intracore/BHB/raw":          "24:a1f6c107da1a76cbd5a65522f908912500adeca2ff077b5334165bc2b0c833d8",
	"sabre/intracore/BHB/protected":    "24:e12923e021d8b514ef0e694b587f84384f970778f6e7b855c96289df39c16159",
	"sabre/kernel/raw":                 "24:6f2a24284ad7f2de866b3eee9972a1a8e177b12f272c9ad23d2ddd32bc17db58",
	"sabre/flush/online":               "24:c69fa176784dcbf21fc1ff37880c94670097639c6d9a238286322b2e554f96fa",
	"sabre/flush/offline":              "24:7594ac5adf32cffe990d9c9a007d9375a4e2050250759d7311ca8c31b07e75fd",
	"sabre/interrupt/open":             "24:9ab47768e7a4d694d7a5e5b09ffb2dfc600dfa1442d105adfeeeb4bd755ec71a",
	"sabre/interrupt/partitioned":      "24:4ce86d0503a919f9ed0edbdb10df9923de84806fd3065a120057d62bdb3c6a23",
	"sabre/bus/raw":                    "24:0124988a4fa8dd5523b2ec5a3d30124635060a87eddb64c9e9f8d517b2c367fb",
	"sabre/bus/mba":                    "24:887357b3626cbe614176f3155e7a151a93fa1b422651d54dd407995a9edb4373",
}

func pinnedSpec(plat hw.Platform, sc kernel.Scenario) Spec {
	return Spec{Platform: plat, Scenario: sc, Samples: 24, Seed: 5}
}

// datasetDigest hashes a dataset's samples in collection order.
func datasetDigest(ds *mi.Dataset) string {
	h := sha256.New()
	var b [16]byte
	for _, s := range ds.Since(0) {
		binary.LittleEndian.PutUint64(b[:8], uint64(int64(s.Input)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.Output))
		h.Write(b[:])
	}
	return fmt.Sprintf("%d:%s", ds.N(), hex.EncodeToString(h.Sum(nil)))
}

// TestChannelDatasetsPinned runs every channel the repository builds at
// a small sample count, on each platform it exists on, and compares the
// samples against digests recorded from the same code paths.
func TestChannelDatasetsPinned(t *testing.T) {
	got := map[string]string{}
	record := func(name string, ds *mi.Dataset, err error) {
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		got[name] = datasetDigest(ds)
	}
	for p, plat := range map[string]hw.Platform{"haswell": hw.Haswell(), "sabre": hw.Sabre()} {
		for _, res := range Resources(plat) {
			for _, sc := range []kernel.Scenario{kernel.ScenarioRaw, kernel.ScenarioProtected} {
				ds, err := RunIntraCore(pinnedSpec(plat, sc), res)
				record(fmt.Sprintf("%s/intracore/%v/%v", p, res, sc), ds, err)
			}
		}
		ds, err := RunKernelChannel(pinnedSpec(plat, kernel.ScenarioRaw))
		record(p+"/kernel/raw", ds, err)
		if fl, err := RunFlushChannel(pinnedSpec(plat, kernel.ScenarioProtected)); err != nil {
			t.Errorf("%s/flush: %v", p, err)
		} else {
			record(p+"/flush/online", fl.Online, nil)
			record(p+"/flush/offline", fl.Offline, nil)
		}
		for _, part := range []bool{false, true} {
			name := map[bool]string{false: "open", true: "partitioned"}[part]
			ds, err := RunInterruptChannel(pinnedSpec(plat, kernel.ScenarioProtected), part)
			record(p+"/interrupt/"+name, ds, err)
		}
		for _, mba := range []bool{false, true} {
			name := map[bool]string{false: "raw", true: "mba"}[mba]
			ds, err := RunBusChannel(pinnedSpec(plat, kernel.ScenarioRaw), mba)
			record(p+"/bus/"+name, ds, err)
		}
	}
	ds, err := RunDRAMChannel(pinnedSpec(hw.Haswell(), kernel.ScenarioRaw))
	record("haswell/dram/raw", ds, err)
	ds, err = RunSMTChannel(pinnedSpec(hw.HaswellSMT(), kernel.ScenarioRaw))
	record("haswell-smt/smt/raw", ds, err)

	for name, want := range pinnedDigests {
		if got[name] != want {
			t.Errorf("%q: %q, want %q", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := pinnedDigests[name]; !ok {
			t.Errorf("unpinned channel run %q", name)
		}
	}
}
