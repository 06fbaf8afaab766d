package timeprot

import (
	"timeprotection/internal/core"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// System is a fully assembled machine, kernel and security-domain
// partition; the usual way to set up domains and run programs in them.
type System = core.System

// Domain is one security domain of a System: a process, its coloured
// memory pool and (under protection) its own kernel image.
type Domain = core.Domain

// Kernel is the booted kernel for callers that drive partitioning
// manually (see Boot and the lifecycle example).
type Kernel = kernel.Kernel

// Image is a kernel image in the clone genealogy.
type Image = kernel.Image

// KernelMemory is the coloured memory a kernel clone lives in.
type KernelMemory = kernel.KernelMemory

// Env is the system-call interface a Program runs against.
type Env = kernel.Env

// Program is the unit of execution a domain schedules.
type Program = kernel.Program

// ProgramFunc adapts a step function into a Program.
type ProgramFunc = kernel.ProgramFunc

// TCB is a thread control block, returned by System.Spawn.
type TCB = kernel.TCB

// Pool is a page-coloured frame pool.
type Pool = memory.Pool

// FrameAllocator hands out physical frames by colour (Kernel.M.Alloc).
type FrameAllocator = memory.FrameAllocator

// Event is one record of the machine-wide trace that WithTrace attaches
// (Kernel.Tracer). Kernel lifecycle events carry the source image ID in
// Addr and the new image ID in Arg.
type Event = trace.Event

// EventKind classifies trace events.
type EventKind = trace.Kind

// Kernel trace kinds, re-exported for trace inspection.
const (
	EvClone   = trace.KernelClone
	EvDestroy = trace.KernelDestroy
	EvTick    = trace.KernelTick
)

// NewSystem boots a platform and partitions it into security domains
// per the options. Under protection (the default) this follows the
// paper's §3.3 recipe: split free memory into coloured pools, clone a
// kernel into each domain's pool, and bind each domain's process to its
// kernel image.
// Repeated boots of the same configuration within a process fork a
// cached machine snapshot instead of re-running boot; the returned
// system is always a fully independent copy.
func NewSystem(opts ...Option) (*System, error) {
	s := newSettings(opts)
	return snapshot.NewSystem(core.Options{
		Platform:        s.platform,
		Scenario:        s.scenario,
		Domains:         s.domains,
		TimesliceMicros: s.timesliceMicros,
		PadMicros:       s.padMicros,
		Tracer:          s.tracer(),
	})
}

// Boot boots a bare kernel without partitioning the machine, for
// callers that drive the clone/revoke lifecycle themselves. Use
// WithKernelCloning to build the colour-ready kernel.
func Boot(opts ...Option) (*Kernel, error) {
	s := newSettings(opts)
	var timeslice uint64
	if s.timesliceMicros > 0 {
		timeslice = s.platform.MicrosToCycles(s.timesliceMicros)
	}
	return snapshot.BootKernel(s.platform, kernel.Config{
		Scenario:        s.scenario,
		TimesliceCycles: timeslice,
		CloneSupport:    s.cloneSupport,
	}, s.tracer())
}

// SplitColours partitions n page colours into k contiguous shares.
func SplitColours(n, k int) [][]int { return memory.SplitColours(n, k) }

// NewPool builds a frame pool restricted to the given colours over the
// machine's allocator.
func NewPool(a *FrameAllocator, colours []int) *Pool { return memory.NewPool(a, colours) }
