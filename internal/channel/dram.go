package channel

import (
	"timeprotection/internal/cache"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
)

// RunDRAMChannel runs the DRAM row-buffer covert channel: sender and
// receiver on different cores and (under the protected scenario) with
// disjoint colours, communicating through the open-row state of shared
// banks. Nothing flushes row buffers and the XOR bank function defeats
// colouring, so this channel — like the interconnect — stays open under
// time protection: more §2.2 state awaiting hardware support.
func RunDRAMChannel(s Spec) (*mi.Dataset, error) {
	s = s.withDefaults()
	plat := s.Platform
	plat.Hierarchy.DRAM = cache.DRAMConfig{Banks: 16, RowBytes: 8192, RowMissExtra: 60}
	s.Platform = plat
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	dram := sys.K.M.Hier.DRAM()

	// Attacker calibration: map buffers and pick, per party, lines that
	// collide in a handful of banks (the sender needs two distinct rows
	// per bank; the receiver one row per bank, large enough to defeat
	// its caches via many rows).
	sBuf, err := NewProbeBuffer(sys, 0, senderBufBase, 192)
	if err != nil {
		return nil, err
	}
	rBuf, err := NewProbeBuffer(sys, 1, receiverBufBase, 768)
	if err != nil {
		return nil, err
	}
	targetBanks := map[int]bool{0: true, 1: true, 2: true, 3: true}
	pick := func(b *ProbeBuffer, stride uint64) []uint64 {
		var out []uint64
		for off := uint64(0); off < uint64(b.Pages)*memory.PageSize; off += stride {
			if targetBanks[dramBank(dram, b.PAddrOf(off))] {
				out = append(out, b.Base+off)
			}
		}
		return out
	}
	// The sender's two row sets: split its bank-colliding lines by row
	// parity so set A and set B are distinct rows of the same banks.
	sLines := pick(sBuf, 256)
	var rowA, rowB []uint64
	for _, v := range sLines {
		if (sBuf.PAddrOf(v-sBuf.Base)/8192)%2 == 0 {
			rowA = append(rowA, v)
		} else {
			rowB = append(rowB, v)
		}
	}
	if len(rowA) == 0 || len(rowB) == 0 {
		rowA, rowB = sLines, sLines
	}
	rLines := pick(rBuf, 320)

	// The sender encodes bits in row-buffer locality, holding bandwidth
	// constant: symbol 0 re-reads lines within a single open row (row
	// friendly), symbol 1 alternates between two rows of the same banks
	// (closing them constantly). Only the row-buffer state differs
	// between symbols, isolating the DRAMA-style channel from bus
	// contention. The receiver times bursts over rows sharing those banks.
	sPos, rPos := 0, 0
	sender := newSlotSender(sys, 2, s.Seed, 1500, func(e *kernel.Env, sym int) {
		for i := 0; i < 16; i++ {
			if sym == 1 && i%2 == 1 {
				e.Load(rowB[sPos%len(rowB)])
			} else {
				e.Load(rowA[sPos%len(rowA)])
			}
			sPos++
		}
	})
	// The receiver's big streaming buffer takes many bursts to reach a
	// cache steady state; discard generously.
	recv := newBurstReceiver(sender, s.Samples, 64, 1200, func(e *kernel.Env) {
		for i := 0; i < 24; i++ {
			e.Load(rLines[rPos%len(rLines)])
			rPos++
		}
	})
	return runConcurrent(sys, "dram", []int{0, 1}, sender, recv)
}

// dramBank exposes the bank function for calibration.
func dramBank(d *cache.DRAMState, paddr uint64) int {
	return d.Bank(paddr)
}
