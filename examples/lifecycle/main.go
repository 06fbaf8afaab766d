// Lifecycle (paper §3.3/§4.4): the dynamic side of time protection.
// The initial process partitions the machine, a domain sub-divides
// itself with a nested kernel clone, a colour is moved between
// partitions, and finally a whole clone subtree is revoked — with the
// boot kernel's idle-thread invariant keeping the system alive
// throughout.
//
// Run: go run ./examples/lifecycle
package main

import (
	"fmt"
	"log"

	"timeprotection/pkg/timeprot"
)

func main() {
	plat := timeprot.Haswell()
	k, err := timeprot.Boot(
		timeprot.WithPlatform(plat),
		timeprot.WithProtection(),
		timeprot.WithKernelCloning(),
		timeprot.WithTrace(64))
	if err != nil {
		log.Fatal(err)
	}
	// Keep the lifecycle events as they are emitted, and count the
	// ticks: every cache access is traced too, and would overwrite them
	// in the per-core rings.
	var lifecycle []timeprot.Event
	ticks := 0
	k.Tracer.OnEvent = func(e timeprot.Event) {
		switch e.Kind {
		case timeprot.EvClone, timeprot.EvDestroy:
			lifecycle = append(lifecycle, e)
		case timeprot.EvTick:
			ticks++
		}
	}
	nCol := plat.Colours()
	fmt.Printf("booted %s: %d page colours, boot image #%d\n\n", plat.Name, nCol, k.BootImage().ID)

	// The init process splits free memory into two coloured pools and
	// clones a kernel into each (the §3.3 recipe).
	split := timeprot.SplitColours(nCol, 2)
	pools := []*timeprot.Pool{
		timeprot.NewPool(k.M.Alloc, split[0]),
		timeprot.NewPool(k.M.Alloc, split[1]),
	}
	var images []*timeprot.Image
	for i, pool := range pools {
		km, err := k.NewKernelMemory(pool)
		if err != nil {
			log.Fatal(err)
		}
		t0 := k.M.Cores[0].Now
		img, err := k.Clone(0, k.BootImage(), km)
		if err != nil {
			log.Fatal(err)
		}
		images = append(images, img)
		fmt.Printf("domain %d: colours %v -> kernel image #%d (clone cost %.1f us)\n",
			i, pool.Colours(), img.ID, plat.CyclesToMicros(k.M.Cores[0].Now-t0))
	}

	// Domain 0 sub-divides: nested partitioning from its image.
	subPools, err := pools[0].Subdivide(2)
	if err != nil {
		log.Fatal(err)
	}
	kmN, err := k.NewKernelMemory(subPools[1])
	if err != nil {
		log.Fatal(err)
	}
	nested, err := k.Clone(0, images[0], kmN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndomain 0 sub-divides: colours %v + %v, nested kernel image #%d (parent #%d)\n",
		subPools[0].Colours(), subPools[1].Colours(), nested.ID, nested.Parent().ID)

	// Re-partitioning: domain 1 cedes a colour to domain 0's first
	// sub-partition.
	moved := pools[1].Colours()[0]
	if err := pools[1].TransferColour(moved, subPools[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-partition: colour %d moves from domain 1 -> domain 0a (now %v)\n",
		moved, subPools[0].Colours())

	// Revoke domain 0's master image: the nested clone dies with it.
	if err := k.RevokeImage(0, images[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrevoke image #%d: subtree destroyed -> #%d zombie=%v, #%d zombie=%v\n",
		images[0].ID, images[0].ID, images[0].Zombie(), nested.ID, nested.Zombie())
	fmt.Printf("boot image #%d alive: %v (idle-thread invariant)\n",
		k.BootImage().ID, !k.BootImage().Zombie())

	// The system keeps acknowledging ticks on the boot kernel.
	k.RunCore(0, k.M.Cores[0].Now+4*k.Timeslice())
	fmt.Printf("\nafter revocation the machine still runs: %d ticks handled\n", ticks)
	fmt.Println("\nkernel trace (lifecycle events):")
	for _, e := range lifecycle {
		fmt.Printf("  [%12d c%d] %-14v a=%d b=%d\n", e.Time, e.Core, e.Kind, e.Addr, e.Arg)
	}
}
