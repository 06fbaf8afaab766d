package cache

// BTBConfig describes a branch target buffer.
type BTBConfig struct {
	Entries           int // total entries, power of two
	Ways              int
	MispredictPenalty int // cycles on BTB miss / wrong target
}

type btbEntry struct {
	tag    uint64
	target uint64
	stamp  uint64
	valid  bool
}

// BTB models a branch target buffer indexed and tagged by (virtual)
// branch PC. A lookup that misses, or hits with the wrong target,
// charges the mispredict penalty; either way the executed target is
// installed. Probing the BTB with chains of branches and timing the
// penalty is the paper's BTB channel (§5.3.2).
type BTB struct {
	cfg     BTBConfig
	sets    int
	setMask uint64
	entries []btbEntry
	tick    uint64
}

// NewBTB builds a BTB, panicking on non-power-of-two geometry.
func NewBTB(cfg BTBConfig) *BTB {
	sets := cfg.Entries / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("btb: set count not a positive power of two")
	}
	return &BTB{cfg: cfg, sets: sets, setMask: uint64(sets - 1), entries: make([]btbEntry, cfg.Entries)}
}

// Config returns the BTB geometry.
func (b *BTB) Config() BTBConfig { return b.cfg }

// setOf indexes by PC bits above the (assumed 4-byte) instruction alignment.
func (b *BTB) setOf(pc uint64) int { return int((pc >> 2) & b.setMask) }

// Branch resolves a taken branch at pc to target, returning the cycle
// penalty (0 on a correct prediction).
func (b *BTB) Branch(pc, target uint64) int {
	b.tick++
	set := b.setOf(pc)
	base := set * b.cfg.Ways
	victim := base
	var victimStamp uint64 = ^uint64(0)
	for i := base; i < base+b.cfg.Ways; i++ {
		e := &b.entries[i]
		if e.valid && e.tag == pc {
			e.stamp = b.tick
			if e.target == target {
				return 0
			}
			e.target = target
			return b.cfg.MispredictPenalty
		}
		if !e.valid {
			victim = i
			victimStamp = 0
		} else if e.stamp < victimStamp {
			victim = i
			victimStamp = e.stamp
		}
	}
	b.entries[victim] = btbEntry{tag: pc, target: target, stamp: b.tick, valid: true}
	return b.cfg.MispredictPenalty
}

// Contains reports whether pc has a BTB entry (tests).
func (b *BTB) Contains(pc uint64) bool {
	base := b.setOf(pc) * b.cfg.Ways
	for i := base; i < base+b.cfg.Ways; i++ {
		if b.entries[i].valid && b.entries[i].tag == pc {
			return true
		}
	}
	return false
}

// Flush invalidates all entries (x86 IBC / Arm BPIALL analogue).
func (b *BTB) Flush() {
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
}

// BHBConfig describes a global-history conditional branch predictor.
type BHBConfig struct {
	HistoryBits       int // length of the global history register
	TableBits         int // log2 of the pattern history table size
	MispredictPenalty int
}

// BHB models a gshare-style predictor: a global history shift register
// XOR-indexed with the branch PC into a table of 2-bit saturating
// counters. The residual-history covert channel of Evtyushkin et al.
// (the paper's BHB channel) works because the sender's taken/not-taken
// pattern lingers in the history register and counter table.
type BHB struct {
	cfg     BHBConfig
	history uint64
	histMsk uint64
	tblMask uint64
	table   []uint8
	// reset is the flushed table image (all counters weakly not-taken);
	// Flush restores it with one copy instead of a byte-at-a-time fill,
	// which matters because the full-flush scenario resets the predictor
	// on every domain switch.
	reset []uint8
}

// NewBHB builds the predictor; counters start weakly not-taken.
func NewBHB(cfg BHBConfig) *BHB {
	b := &BHB{
		cfg:     cfg,
		histMsk: (1 << uint(cfg.HistoryBits)) - 1,
		tblMask: (1 << uint(cfg.TableBits)) - 1,
		table:   make([]uint8, 1<<uint(cfg.TableBits)),
		reset:   make([]uint8, 1<<uint(cfg.TableBits)),
	}
	for i := range b.reset {
		b.reset[i] = 1 // weakly not-taken
	}
	copy(b.table, b.reset)
	return b
}

// Config returns the predictor geometry.
func (b *BHB) Config() BHBConfig { return b.cfg }

// CondBranch resolves a conditional branch at pc with the given outcome
// and returns the cycle penalty (0 when predicted correctly).
func (b *BHB) CondBranch(pc uint64, taken bool) int {
	idx := ((pc >> 2) ^ b.history) & b.tblMask
	ctr := b.table[idx]
	predicted := ctr >= 2
	if taken && ctr < 3 {
		b.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = ((b.history << 1) | boolBit(taken)) & b.histMsk
	if predicted == taken {
		return 0
	}
	return b.cfg.MispredictPenalty
}

// Flush resets history and counters (IBC / BPIALL analogue).
func (b *BHB) Flush() {
	b.history = 0
	copy(b.table, b.reset)
}

// History exposes the raw history register (tests).
func (b *BHB) History() uint64 { return b.history }

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
