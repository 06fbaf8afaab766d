package timeprot

import "testing"

// TestTraceRecordsLifecycle runs the lifecycle example's clone and
// revoke sequence under WithTrace and checks the kernel lifecycle
// events the sink sees: kind, core, time, source and new image.
func TestTraceRecordsLifecycle(t *testing.T) {
	plat := Haswell()
	k, err := Boot(WithPlatform(plat), WithProtection(), WithKernelCloning(), WithTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	if k.Tracer == nil || !k.Tracer.EventsEnabled() {
		t.Fatal("WithTrace did not attach an event-retaining sink")
	}
	var got []Event
	k.Tracer.OnEvent = func(e Event) {
		if e.Kind == EvClone || e.Kind == EvDestroy {
			got = append(got, e)
		}
	}

	split := SplitColours(plat.Colours(), 2)
	pools := []*Pool{NewPool(k.M.Alloc, split[0]), NewPool(k.M.Alloc, split[1])}
	var images []*Image
	for _, pool := range pools {
		km, err := k.NewKernelMemory(pool)
		if err != nil {
			t.Fatal(err)
		}
		img, err := k.Clone(0, k.BootImage(), km)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	sub, err := pools[0].Subdivide(2)
	if err != nil {
		t.Fatal(err)
	}
	km, err := k.NewKernelMemory(sub[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Clone(0, images[0], km); err != nil {
		t.Fatal(err)
	}
	if err := pools[1].TransferColour(pools[1].Colours()[0], sub[0]); err != nil {
		t.Fatal(err)
	}
	if err := k.RevokeImage(0, images[0]); err != nil {
		t.Fatal(err)
	}

	type tuple struct {
		kind     EventKind
		core     uint8
		time     uint64
		src, dst uint64
	}
	want := []tuple{
		{EvClone, 0, 124497, 0, 1},
		{EvClone, 0, 240902, 0, 2},
		{EvClone, 0, 367121, 1, 3},
		{EvDestroy, 0, 367121, 3, 0},
		{EvDestroy, 0, 368921, 1, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lifecycle events, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if g := (tuple{e.Kind, e.Core, e.Time, e.Addr, e.Arg}); g != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, g, want[i])
		}
	}
}
