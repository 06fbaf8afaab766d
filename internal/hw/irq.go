package hw

import "sort"

// IRQController models the machine's interrupt fabric. IRQ lines are
// small integers; each line is routed to one core. Masking is per line.
//
// Delivery is fixed-priority: of the lines deliverable to a core, the
// lowest-numbered one is delivered first, and every list the controller
// returns (Lines, ProbeLatched) is in ascending line order. No map
// iteration order reaches the simulated machine, so a run with several
// lines pending on one core is deterministic.
//
// On the x86-style two-level fabric (IO-APIC + LAPIC), masking a
// bottom-level source races with an interrupt the CPU already accepted:
// a line that was pending at mask time stays *latched* and will be
// delivered despite the mask unless the kernel probes and acknowledges
// it (paper §4.3). The Arm GIC's single-level control has no such race.
type IRQController struct {
	twoLevel bool
	routing  map[int]int  // line -> core
	pending  map[int]bool // raised and not yet acknowledged
	masked   map[int]bool
	latched  map[int]bool // x86 race: accepted before mask completed
}

// NewIRQController builds a controller for nCores cores.
func NewIRQController(nCores int, twoLevel bool) *IRQController {
	return &IRQController{
		twoLevel: twoLevel,
		routing:  make(map[int]int),
		pending:  make(map[int]bool),
		masked:   make(map[int]bool),
		latched:  make(map[int]bool),
	}
}

// Route directs an IRQ line to a core.
func (ic *IRQController) Route(line, core int) { ic.routing[line] = core }

// CoreOf returns the core a line is routed to (default 0).
func (ic *IRQController) CoreOf(line int) int { return ic.routing[line] }

// Raise marks a line pending.
func (ic *IRQController) Raise(line int) { ic.pending[line] = true }

// Masked reports whether a line is masked.
func (ic *IRQController) Masked(line int) bool { return ic.masked[line] }

// Mask masks the given lines. On a two-level controller, any line that
// was already pending becomes latched: it will still be delivered once
// unless the kernel acknowledges it via ProbeLatched.
func (ic *IRQController) Mask(lines ...int) {
	for _, l := range lines {
		if ic.twoLevel && ic.pending[l] && !ic.masked[l] {
			ic.latched[l] = true
		}
		ic.masked[l] = true
	}
}

// Unmask unmasks the given lines.
func (ic *IRQController) Unmask(lines ...int) {
	for _, l := range lines {
		delete(ic.masked, l)
	}
}

// Lines returns all lines ever routed, in ascending order (for
// mask-all sweeps, which touch kernel state once per line in this
// order).
func (ic *IRQController) Lines() []int {
	out := make([]int, 0, len(ic.routing))
	for l := range ic.routing { // order-free: sorted below
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// ProbeLatched returns and clears the latched lines for a core, in
// ascending order, acknowledging them at the hardware level. The x86
// domain-switch path must call this after masking; skipping it lets a
// cross-domain interrupt slip through the mask.
func (ic *IRQController) ProbeLatched(core int) []int {
	var out []int
	for l := range ic.latched { // order-free: collects and deletes; sorted below
		if ic.routing[l] == core {
			out = append(out, l)
			delete(ic.latched, l)
			delete(ic.pending, l)
		}
	}
	sort.Ints(out)
	return out
}

// NextDeliverable returns the lowest pending line deliverable to core
// right now: unmasked and routed there — or a latched line (two-level
// race) even if masked. ok is false when nothing is deliverable. It
// runs on every kernel step, so it scans without allocating.
func (ic *IRQController) NextDeliverable(core int) (line int, ok bool) {
	for l := range ic.pending { // order-free: keeps the lowest deliverable line
		if ic.routing[l] != core || (ok && l >= line) {
			continue
		}
		if !ic.masked[l] || ic.latched[l] {
			line, ok = l, true
		}
	}
	return line, ok
}

// Acknowledge clears a delivered line.
func (ic *IRQController) Acknowledge(line int) {
	delete(ic.pending, line)
	delete(ic.latched, line)
}

// PendingCount returns the number of pending lines (tests).
func (ic *IRQController) PendingCount() int { return len(ic.pending) }
