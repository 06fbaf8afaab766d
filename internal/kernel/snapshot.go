package kernel

// Snapshot codec for the kernel layer (conventions in
// internal/cache/snapshot.go). A kernel is encodable only at a quiescent
// point — the state a machine is in right after boot and domain setup:
// no user threads exist, nothing is scheduled or dispatched, and no IRQ
// line has a notification bound. That is exactly the point the snapshot
// layer captures (immediately after kernel.Boot / core.NewSystem), and
// the restriction keeps user Programs — arbitrary host closures — out of
// the encoding entirely. Everything else, including clone genealogy,
// per-image idle threads and metrics, round-trips.

import (
	"fmt"
	"sort"

	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
)

func encodeKernelConfig(w *enc.Writer, cfg Config) {
	w.Int(int(cfg.Scenario))
	w.U64(cfg.TimesliceCycles)
	w.Bool(cfg.CloneSupport)
	w.Bool(cfg.StrictDomains)
	w.Ints(cfg.ScheduleDomains)
	w.U64(cfg.FuzzyClockGrain)
}

func decodeKernelConfig(r *enc.Reader) Config {
	return Config{
		Scenario:        Scenario(r.Int()),
		TimesliceCycles: r.U64(),
		CloneSupport:    r.Bool(),
		StrictDomains:   r.Bool(),
		ScheduleDomains: r.Ints(),
		FuzzyClockGrain: r.U64(),
	}
}

func (img *Image) encodeState(w *enc.Writer) {
	w.Int(img.ID)
	memory.EncodePFNs(w, img.text)
	w.U64(uint64(img.stack))
	memory.EncodePFNs(w, img.flushD)
	memory.EncodePFNs(w, img.flushI)
	w.U64(uint64(img.ptFrame))
	w.Bool(img.mem != nil)
	if img.mem != nil {
		memory.EncodePFNs(w, img.mem.Frames)
	}
	w.Int(int(img.idle.State))
	irqs := img.IRQs()
	sort.Ints(irqs)
	w.Ints(irqs)
	w.U64(img.PadCycles)
	w.U64(img.runningOn)
	parent := -1
	if img.parent != nil {
		parent = img.parent.ID
	}
	w.Int(parent)
	children := make([]int, 0, len(img.children))
	for _, c := range img.children {
		children = append(children, c.ID)
	}
	w.Ints(children)
	w.Bool(img.zombie)
}

// decodeImage reads one image; parent/children are returned as IDs for a
// second wiring pass.
func (k *Kernel) decodeImage(r *enc.Reader) (img *Image, parentID int, childIDs []int, err error) {
	img = &Image{
		k:       k,
		geom:    geometryFor(k.M.Plat.Arch),
		ID:      r.Int(),
		irqs:    make(map[int]bool),
		text:    memory.DecodePFNs(r),
		stack:   memory.PFN(r.U64()),
		flushD:  memory.DecodePFNs(r),
		flushI:  memory.DecodePFNs(r),
		ptFrame: memory.PFN(r.U64()),
	}
	if r.Bool() {
		img.mem = &KernelMemory{Frames: memory.DecodePFNs(r), image: img}
	}
	img.idle = &TCB{
		Name:   fmt.Sprintf("idle/k%d", img.ID),
		Image:  img,
		State:  ThreadState(r.Int()),
		isIdle: true,
		Prio:   -1,
	}
	for _, l := range r.Ints() {
		img.irqs[l] = true
	}
	img.PadCycles = r.U64()
	img.runningOn = r.U64()
	parentID = r.Int()
	childIDs = r.Ints()
	w := r.Bool()
	img.zombie = w
	return img, parentID, childIDs, r.Err()
}

// EncodeState appends the kernel's full state — machine included — to w.
// It fails if the kernel is past the quiescent post-boot point (user
// threads exist, something is dispatched, or an IRQ notification is
// bound): such state embeds host closures that cannot be serialized.
func (k *Kernel) EncodeState(w *enc.Writer) error {
	if n := len(k.allThreads); n != 0 {
		return fmt.Errorf("kernel: cannot encode with %d user threads", n)
	}
	for i, cs := range k.cores {
		if cs.cur != nil {
			return fmt.Errorf("kernel: cannot encode with a thread dispatched on core %d", i)
		}
	}
	for p := range k.sched.ready {
		if len(k.sched.ready[p]) != 0 {
			return fmt.Errorf("kernel: cannot encode with scheduled threads at priority %d", p)
		}
	}
	for line, b := range k.irqBind {
		if b.notif != nil || b.awaitingAck {
			return fmt.Errorf("kernel: cannot encode with a notification bound to IRQ %d", line)
		}
	}
	if err := k.M.EncodeState(w); err != nil {
		return err
	}
	encodeKernelConfig(w, k.Cfg)
	memory.EncodePFNs(w, k.Shared.frames)
	w.Int(k.nextImageID)
	w.U64(uint64(k.nextASID))
	w.Bool(k.latchedSchedule != nil)
	w.Ints(k.latchedSchedule)
	mt := &k.Metrics
	for _, v := range [...]uint64{
		mt.Ticks, mt.Syscalls, mt.DomainSwitches, mt.KernelSwitches,
		mt.IRQsHandled, mt.IRQsDeferred, mt.LastDomainSwitchCycles,
		mt.LastDomainSwitchPadded, mt.LastCloneCycles, mt.LastDestroyCycles,
	} {
		w.U64(v)
	}
	w.Int(len(k.Images))
	for _, img := range k.Images {
		img.encodeState(w)
	}
	lines := make([]int, 0, len(k.irqBind))
	for l := range k.irqBind {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	w.Int(len(lines))
	for _, l := range lines {
		w.Int(l)
		imgID := -1
		if k.irqBind[l].img != nil {
			imgID = k.irqBind[l].img.ID
		}
		w.Int(imgID)
	}
	w.Int(len(k.cores))
	for _, cs := range k.cores {
		w.Int(cs.curImage.ID)
		w.U64(uint64(cs.curASID))
		w.Int(cs.curDomain)
		w.U64(cs.nextTick)
		w.U64(cs.tickStart)
	}
	return nil
}

// DecodeKernel reconstructs a kernel (and its machine) for plat from
// EncodeState output. The caller must pass the platform the kernel was
// encoded on; the tracer is left detached.
func DecodeKernel(plat hw.Platform, r *enc.Reader) (*Kernel, error) {
	m := hw.NewMachine(plat)
	if err := m.DecodeState(r); err != nil {
		return nil, err
	}
	k := &Kernel{M: m, Cfg: decodeKernelConfig(r), irqBind: make(map[int]*irqBinding)}
	k.Shared = &SharedRegion{frames: memory.DecodePFNs(r)}
	if len(k.Shared.frames) == 0 {
		return nil, fmt.Errorf("kernel: snapshot has no shared region")
	}
	k.Shared.base = k.Shared.frames[0].Addr()
	k.nextImageID = r.Int()
	k.nextASID = uint16(r.U64())
	hasLatched := r.Bool()
	k.latchedSchedule = r.Ints()
	if hasLatched && k.latchedSchedule == nil {
		k.latchedSchedule = []int{}
	}
	for _, p := range [...]*uint64{
		&k.Metrics.Ticks, &k.Metrics.Syscalls, &k.Metrics.DomainSwitches,
		&k.Metrics.KernelSwitches, &k.Metrics.IRQsHandled, &k.Metrics.IRQsDeferred,
		&k.Metrics.LastDomainSwitchCycles, &k.Metrics.LastDomainSwitchPadded,
		&k.Metrics.LastCloneCycles, &k.Metrics.LastDestroyCycles,
	} {
		*p = r.U64()
	}
	nImages := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nImages < 1 {
		return nil, fmt.Errorf("kernel: snapshot has no kernel images")
	}
	byID := make(map[int]*Image, nImages)
	parents := make([]int, nImages)
	children := make([][]int, nImages)
	for i := 0; i < nImages; i++ {
		img, parentID, childIDs, err := k.decodeImage(r)
		if err != nil {
			return nil, err
		}
		k.Images = append(k.Images, img)
		byID[img.ID] = img
		parents[i] = parentID
		children[i] = childIDs
	}
	resolve := func(id int) (*Image, error) {
		img, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("kernel: snapshot references unknown image %d", id)
		}
		return img, nil
	}
	var err error
	for i, img := range k.Images {
		if parents[i] >= 0 {
			if img.parent, err = resolve(parents[i]); err != nil {
				return nil, err
			}
		}
		for _, cid := range children[i] {
			c, err := resolve(cid)
			if err != nil {
				return nil, err
			}
			img.children = append(img.children, c)
		}
	}
	nBind := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < nBind; i++ {
		line := r.Int()
		imgID := r.Int()
		b := &irqBinding{}
		if imgID >= 0 {
			if b.img, err = resolve(imgID); err != nil {
				return nil, err
			}
		}
		k.irqBind[line] = b
	}
	k.sched = newScheduler(k)
	nCores := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nCores != plat.Cores {
		return nil, fmt.Errorf("kernel: snapshot has %d cores, platform %d", nCores, plat.Cores)
	}
	for i := 0; i < nCores; i++ {
		cs := &coreState{}
		if cs.curImage, err = resolve(r.Int()); err != nil {
			return nil, err
		}
		cs.curASID = uint16(r.U64())
		cs.curDomain = r.Int()
		cs.nextTick = r.U64()
		cs.tickStart = r.U64()
		cs.env = &Env{k: k, core: i}
		k.cores = append(k.cores, cs)
	}
	return k, r.Err()
}

// EncodeState appends the process's state to w. Processes are encodable
// only while their capability space is empty (capabilities point at
// arbitrary kernel objects; at the snapshot's quiescent point none have
// been installed yet).
func (p *Process) EncodeState(w *enc.Writer) error {
	if n := p.CSpace.Size(); n != 0 {
		return fmt.Errorf("kernel: cannot encode process %q with %d capabilities", p.Name, n)
	}
	w.String(p.Name)
	p.AS.EncodeState(w)
	w.Int(p.Image.ID)
	memory.EncodePFNs(w, p.arenaFrames)
	w.U64(p.arenaUsed)
	w.U64(p.cnodeAddr)
	return nil
}

// DecodeProcess reconstructs a process backed by pool, resolving its
// kernel image against k's image table.
func (k *Kernel) DecodeProcess(pool *memory.Pool, r *enc.Reader) (*Process, error) {
	name := r.String()
	as, err := memory.DecodeAddressSpace(pool, r)
	if err != nil {
		return nil, err
	}
	imgID := r.Int()
	var img *Image
	for _, cand := range k.Images {
		if cand.ID == imgID {
			img = cand
			break
		}
	}
	if img == nil {
		return nil, fmt.Errorf("kernel: process %q references unknown image %d", name, imgID)
	}
	p := &Process{
		Name:        name,
		AS:          as,
		Pool:        pool,
		Image:       img,
		arenaFrames: memory.DecodePFNs(r),
		arenaUsed:   r.U64(),
		cnodeAddr:   r.U64(),
	}
	return p, r.Err()
}
