package channel

import (
	"runtime"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
)

// TestRunMemoBounded is the soak test for the process run memo: a
// long-running daemon keys channel runs by seed, so a stream of
// distinct seeds must not grow memory without limit. Four times the
// memo's capacity of distinct-seed specs pass through memoDataset (with
// a stand-in run of realistic size in place of the simulation); the
// memo must never retain more than its capacity, must count every
// eviction, and the live heap must stay flat from the second batch to
// the fourth.
func TestRunMemoBounded(t *testing.T) {
	snapshot.Reset()
	t.Cleanup(snapshot.Reset)
	capacity := snapshot.MemoStats().Capacity
	if capacity <= 0 {
		t.Fatalf("run memo capacity = %d, want a bound", capacity)
	}
	const samples = 512 // 8 KiB of samples per retained dataset
	run := func() (*mi.Dataset, error) {
		var ds mi.Dataset
		ds.Reserve(samples)
		for i := 0; i < samples; i++ {
			ds.Add(i%4, float64(i))
		}
		return &ds, nil
	}
	evictionsBefore := snapshot.MemoStats().Evictions
	plat := hw.Haswell()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var heap2 uint64
	seed := int64(0)
	for batch := 1; batch <= 4; batch++ {
		for i := 0; i < capacity; i++ {
			seed++
			s := Spec{Platform: plat, Scenario: kernel.ScenarioRaw, Samples: samples, Seed: seed}
			if _, err := memoDataset(s, "soak", run); err != nil {
				t.Fatalf("memoDataset seed %d: %v", seed, err)
			}
			if n := snapshot.MemoStats().Entries; n > capacity {
				t.Fatalf("batch %d: memo retains %d entries, above its capacity %d", batch, n, capacity)
			}
		}
		switch batch {
		case 2:
			heap2 = heap()
		case 4:
			heap4 := heap()
			// One batch of retained datasets is about capacity*8 KiB; an
			// unbounded memo would have grown by two of them since batch 2.
			slack := uint64(capacity) * samples * 16 / 4
			if heap4 > heap2+slack {
				t.Errorf("heap grew from %d to %d bytes between batches 2 and 4 (slack %d): the memo is not bounded",
					heap2, heap4, slack)
			}
		}
	}
	if got, want := snapshot.MemoStats().Evictions-evictionsBefore, uint64(3*capacity); got != want {
		t.Errorf("evictions = %d, want %d (every run past the capacity evicts one)", got, want)
	}
}
