package cache_test

import (
	"bytes"
	"math/rand"
	"testing"

	"timeprotection/internal/cache"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
)

// unit is what the test needs of a flushable structure.
type unit interface {
	EncodeState(*enc.Writer)
	Flush()
}

// flushedEncodings builds two units, feeds each a random history from
// its own seed and flushes them. It fails the test unless the histories left
// different state before the flush, and returns the flushed encodings.
func flushedEncodings(t *testing.T, run func(rng *rand.Rand) unit) (a, b []byte) {
	t.Helper()
	var before, after [2][]byte
	for i := range before {
		u := run(rand.New(rand.NewSource(int64(i + 1))))
		var w enc.Writer
		u.EncodeState(&w)
		before[i] = w.Bytes()
		u.Flush()
		w = enc.Writer{}
		u.EncodeState(&w)
		after[i] = w.Bytes()
	}
	if bytes.Equal(before[0], before[1]) {
		t.Fatal("the two histories left identical state; the check would be vacuous")
	}
	return after[0], after[1]
}

// flushedCache adapts Cache.Flush, which also reports what it dropped.
type flushedCache struct{ *cache.Cache }

func (c flushedCache) Flush() { c.Cache.Flush() }

// TestFlushLeavesNoHistory is the paper's Requirement 1 checked on the
// codec: after a flush, no encoded byte of a cache level or of the
// branch-history predictor may depend on what ran before it. Two
// instances fed different seeded histories must therefore encode to
// equal bytes once flushed, for every cache level of both evaluation
// platforms.
func TestFlushLeavesNoHistory(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		h := plat.Hierarchy
		for _, cfg := range []cache.Config{h.L1D, h.L1I, h.L2, h.L3} {
			if cfg.Size == 0 {
				continue
			}
			t.Run(plat.Arch+"/"+cfg.Name, func(t *testing.T) {
				a, b := flushedEncodings(t, func(rng *rand.Rand) unit {
					c := cache.New(cfg)
					span := uint64(4 * cfg.Size)
					for i := 0; i < 20000; i++ {
						addr := uint64(rng.Int63n(int64(span)))
						switch rng.Intn(4) {
						case 0:
							c.Fill(addr, addr, rng.Intn(2) == 0)
						case 1:
							c.AccessMasked(addr, addr, true, uint64(rng.Intn(1<<cfg.Ways)))
						default:
							c.Access(addr, addr, rng.Intn(3) == 0)
						}
					}
					return flushedCache{c}
				})
				if !bytes.Equal(a, b) {
					t.Fatal("flushed caches with different histories encode differently")
				}
			})
		}
		bhb := h.BHB
		t.Run(plat.Arch+"/BHB", func(t *testing.T) {
			a, b := flushedEncodings(t, func(rng *rand.Rand) unit {
				p := cache.NewBHB(bhb)
				for i := 0; i < 5000; i++ {
					p.CondBranch(uint64(rng.Intn(1<<16))<<2, rng.Intn(3) != 0)
				}
				return p
			})
			if !bytes.Equal(a, b) {
				t.Fatal("flushed predictors with different histories encode differently")
			}
		})
	}
}
