package channel

import (
	"fmt"
	"math/rand"
	"sort"

	"timeprotection/internal/core"
	"timeprotection/internal/crypto"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
)

// Slot is one spy observation of the monitored LLC sets.
type Slot struct {
	Time   uint64
	Misses int
}

// LLCSpy is the cross-core prime&probe attacker of §5.3.3: it owns an
// eviction set covering the LLC sets of the victim's square routine,
// keeps them primed, and records a miss count per time slot. Misses mean
// the victim executed the square function during the slot.
type LLCSpy struct {
	lines     []uint64
	threshold int
	gap       int
	maxSlots  int
	Trace     []Slot
}

// Step implements kernel.Program: one probe per slot.
func (s *LLCSpy) Step(e *kernel.Env) bool {
	if len(s.Trace) >= s.maxSlots {
		e.Spin(s.gap)
		return true
	}
	m := 0
	if len(s.lines) > 0 {
		m = ProbeMisses(e, s.lines, s.threshold)
	}
	s.Trace = append(s.Trace, Slot{Time: e.Now(), Misses: m})
	e.Spin(s.gap)
	return true
}

// BuildEvictionSet allocates pages in dom until `ways` frames share the
// LLC page-group residue of targetFrame (the sim-level equivalent of
// Mastik's eviction-set construction), mapping them at baseVA. It
// returns one probe line per way for each of the page's monitored line
// offsets. Under colouring the residue may be unreachable, in which case
// fewer (possibly zero) ways are found — exactly the defender's intent.
func BuildEvictionSet(sys *core.System, dom int, baseVA uint64, targetFrame memory.PFN, ways int, lineOffsets []int, maxPages int) ([]uint64, int) {
	llc := sys.K.M.Hier.LLC()
	pageGroups := llc.Sets() * llc.LineSize() / memory.PageSize
	if pageGroups < 1 {
		pageGroups = 1
	}
	residue := int(uint64(targetFrame) % uint64(pageGroups))
	var pages []uint64
	for i := 0; i < maxPages && len(pages) < ways; i++ {
		va := baseVA + uint64(i)*memory.PageSize
		frames, err := sys.MapBuffer(dom, va, 1)
		if err != nil {
			break
		}
		if int(uint64(frames[0])%uint64(pageGroups)) == residue {
			pages = append(pages, va)
		}
	}
	lineSize := llc.LineSize()
	var lines []uint64
	for _, off := range lineOffsets {
		for _, p := range pages {
			lines = append(lines, p+uint64(off*lineSize))
		}
	}
	return lines, len(pages)
}

// LLCSideChannelResult is the Figure 4 outcome: the spy's activity trace,
// the recovered key bits and their accuracy against ground truth.
type LLCSideChannelResult struct {
	Trace        []Slot
	TrueBits     []bool
	Recovered    []bool
	Accuracy     float64
	EvictionWays int
	ActiveSlots  int
}

// RunLLCSideChannel reproduces the Figure 4 attack: a victim decrypting
// ElGamal on core 0, a spy prime&probing the LLC sets of the victim's
// square routine from core 1. Under colouring (protected) the spy's
// eviction set cannot reach the victim's sets and the trace goes dark.
func RunLLCSideChannel(s Spec) (*LLCSideChannelResult, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	victim, spy, ways, err := newLLCSideChannel(sys, s)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(0, "victim", 10, victim); err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(1, "spy", 10, spy); err != nil {
		return nil, err
	}
	// Run both cores until the spy has its slots.
	for i := 0; i < 10000 && len(spy.Trace) < spy.maxSlots; i++ {
		sys.RunCoresFor([]int{0, 1}, sys.Timeslice()*4)
	}
	if len(spy.Trace) == 0 {
		return nil, fmt.Errorf("llc: spy collected no slots")
	}

	res := &LLCSideChannelResult{
		Trace:        spy.Trace,
		TrueBits:     victim.Bits(),
		EvictionWays: ways,
	}
	res.Recovered, res.ActiveSlots = RecoverBits(spy.Trace, 2)
	res.Accuracy = bitAccuracy(res.TrueBits, res.Recovered)
	return res, nil
}

// newLLCSideChannel maps the Figure 4 victim in domain 0 and builds the
// domain-1 spy's eviction set for the victim's square page; it returns
// the victim, the spy and the number of eviction ways found.
func newLLCSideChannel(sys *core.System, s Spec) (*crypto.Victim, *LLCSpy, int, error) {
	// Victim code: square and multiply routines on separate pages.
	const squareVA, mulVA = 0x0800_0000, 0x0900_0000
	sqFrames, err := sys.MapBuffer(0, squareVA, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := sys.MapBuffer(0, mulVA, 1); err != nil {
		return nil, nil, 0, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	key := crypto.GenerateShortKey(rng, 24)
	ct := crypto.Encrypt(key, 0xDEADBEEF, rng.Uint64()%(crypto.GroupP-2)+1)
	victim := crypto.NewVictim(key, ct, squareVA, mulVA, memory.PageSize)
	victim.GapCycles = 40000

	// Spy: eviction set for the square page, monitoring two of its sets.
	// The probe must be fast enough that a quiet window is observed
	// between any two squares, or consecutive zero bits blur into one
	// burst (a full-page probe costs more than the victim's bit period).
	llcWays := sys.K.M.Hier.LLC().Ways()
	lineSize := sys.K.M.Plat.Hierarchy.L1D.LineSize
	linesPerPage := memory.PageSize / lineSize
	offsets := []int{0, linesPerPage / 2}
	lines, ways := BuildEvictionSet(sys, 1, receiverBufBase, sqFrames[0], llcWays, offsets, 4096)
	missThreshold := sys.K.M.Plat.Hierarchy.L1D.HitLatency +
		sys.K.M.Plat.Hierarchy.L2.HitLatency +
		sys.K.M.Plat.Hierarchy.L3.HitLatency + 10
	if sys.K.M.Plat.Hierarchy.L3.Size == 0 {
		missThreshold = sys.K.M.Plat.Hierarchy.L1D.HitLatency + sys.K.M.Plat.Hierarchy.L2.HitLatency + 10
	}
	spy := &LLCSpy{lines: lines, threshold: missThreshold, gap: 6000, maxSlots: s.Samples * 12}
	return victim, spy, ways, nil
}

// RecoverBits turns the spy trace into key bits: activity bursts mark
// square invocations; the gap between consecutive squares is lengthened
// by a multiply, so long gaps decode as 1 and short gaps as 0 (the
// paper's "the secret key is encoded in the length of the intervals").
func RecoverBits(trace []Slot, activityThreshold int) (bits []bool, activeSlots int) {
	// Collect burst start times.
	var bursts []uint64
	inBurst := false
	for _, s := range trace {
		active := s.Misses >= activityThreshold
		if active {
			activeSlots++
			if !inBurst {
				bursts = append(bursts, s.Time)
			}
		}
		inBurst = active
	}
	if len(bursts) < 3 {
		return nil, activeSlots
	}
	gaps := make([]uint64, len(bursts)-1)
	for i := 1; i < len(bursts); i++ {
		gaps[i-1] = bursts[i] - bursts[i-1]
	}
	// The gap population is bimodal (square vs square+multiply). Split
	// it at the largest jump between consecutive sorted values, which is
	// robust against outliers that a min/max midpoint is not.
	sorted := append([]uint64(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bestJump, mid := uint64(0), uint64(0)
	// Ignore the tails when searching for the modal boundary.
	lo, hi := len(sorted)/20, len(sorted)-1-len(sorted)/20
	for i := lo; i < hi; i++ {
		if j := sorted[i+1] - sorted[i]; j > bestJump {
			bestJump = j
			mid = sorted[i] + j/2
		}
	}
	if bestJump < sorted[len(sorted)/2]/4 {
		// No bimodality: the trace carries no interval signal.
		return nil, activeSlots
	}
	for _, g := range gaps {
		bits = append(bits, g > mid)
	}
	return bits, activeSlots
}

// bitAccuracy aligns the recovered bit string against the repeated true
// key stream at every offset and returns the best match ratio (the
// attacker knows decryptions repeat; alignment is their problem too).
func bitAccuracy(truth, rec []bool) float64 {
	if len(rec) == 0 || len(truth) == 0 {
		return 0
	}
	best := 0.0
	for off := 0; off < len(truth); off++ {
		match := 0
		for i, b := range rec {
			if truth[(off+i)%len(truth)] == b {
				match++
			}
		}
		if acc := float64(match) / float64(len(rec)); acc > best {
			best = acc
		}
	}
	return best
}
