package session

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/mi"
)

func newTestRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	r := NewRegistry(opts)
	t.Cleanup(r.Close)
	return r
}

func ptr(v int64) *int64 { return &v }

// oneShot runs the classic single-call channel path for a spec — the
// reference the interactive path must reproduce exactly.
func oneShot(t *testing.T, sp Spec) *mi.Dataset {
	t.Helper()
	sp, err := sp.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	cs := sp.channelSpec(nil)
	var ds *mi.Dataset
	switch sp.Channel {
	case "kernel":
		ds, err = channel.RunKernelChannel(cs)
	case "interrupt":
		ds, err = channel.RunInterruptChannel(cs, sp.Partition)
	default:
		res := map[string]channel.Resource{
			"l1d": channel.L1D, "l1i": channel.L1I, "l2": channel.L2,
			"tlb": channel.TLB, "btb": channel.BTB, "bhb": channel.BHB,
		}[sp.Channel]
		ds, err = channel.RunIntraCore(cs, res)
	}
	if err != nil {
		t.Fatalf("one-shot %s: %v", sp.Channel, err)
	}
	return ds
}

// TestSessionMatchesOneShot is the determinism anchor: a session
// stepped to completion in deliberately uneven increments produces
// byte-identical samples — and an identical MI verdict — to the
// one-shot channel run for the same spec and seed, on every supported
// channel.
func TestSessionMatchesOneShot(t *testing.T) {
	specs := []Spec{
		{Channel: "l1d", Samples: 24, Seed: ptr(7)},
		{Channel: "l1i", Samples: 24, Seed: ptr(7)},
		{Channel: "l2", Samples: 24, Seed: ptr(7)},
		{Channel: "tlb", Samples: 24, Seed: ptr(7)},
		{Channel: "btb", Samples: 24, Seed: ptr(7)},
		{Channel: "bhb", Samples: 24, Seed: ptr(7)},
		{Channel: "kernel", Samples: 24, Seed: ptr(7)},
		{Channel: "interrupt", Samples: 24, Seed: ptr(7)},
		{Channel: "interrupt", Samples: 24, Seed: ptr(7), Partition: true},
		{Channel: "l1d", Samples: 20, Seed: ptr(0), Platform: "sabre", Scenario: "fullflush"},
		{Channel: "kernel", Samples: 20, Seed: ptr(3), Platform: "sabre", Scenario: "protected", PadMicros: 20},
	}
	for _, sp := range specs {
		sp := sp
		name := sp.Channel + "/" + sp.Platform + "/" + sp.Scenario
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := oneShot(t, sp)

			r := newTestRegistry(t, Options{})
			s, err := r.Create(sp)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			// Uneven, replay-hostile step sizes: if stepping leaked any
			// state across chunk boundaries, some size here would expose
			// it.
			sizes := []int{1, 3, 1, 7, 2, 5, 100}
			var got []Sample
			var verdict *Verdict
			for i := 0; ; i++ {
				res, err := s.Step(sizes[i%len(sizes)])
				if err != nil {
					t.Fatalf("Step: %v", err)
				}
				got = append(got, res.Samples...)
				if res.Done {
					verdict = res.Verdict
					break
				}
			}

			if got := len(got); got != want.N() {
				t.Fatalf("collected %d samples, one-shot %d", got, want.N())
			}
			for i, sm := range want.Since(0) {
				if got[i].Index != i || got[i].Symbol != sm.Input || got[i].Value != sm.Output {
					t.Fatalf("sample %d = %+v, one-shot (symbol=%d value=%v)",
						i, got[i], sm.Input, sm.Output)
				}
			}
			ref := mi.Analyze(want, rand.New(rand.NewSource(*verdictSeed(sp))))
			if verdict == nil {
				t.Fatal("no verdict on the completing step")
			}
			if verdict.Summary != ref.String() {
				t.Errorf("verdict %q, one-shot %q", verdict.Summary, ref.String())
			}
			if math.Abs(verdict.MBits-ref.M) > 1e-9 || math.Abs(verdict.M0Bits-ref.M0) > 1e-9 {
				t.Errorf("MI m=%v m0=%v, one-shot m=%v m0=%v",
					verdict.MBits, verdict.M0Bits, ref.M, ref.M0)
			}
			if verdict.N != ref.N || verdict.Leak != ref.Leak() {
				t.Errorf("verdict n=%d leak=%v, one-shot n=%d leak=%v",
					verdict.N, verdict.Leak, ref.N, ref.Leak())
			}
			// Stepping a finished session stays done and collects nothing.
			res, err := s.Step(5)
			if err != nil {
				t.Fatalf("post-done Step: %v", err)
			}
			if !res.Done || res.Collected != 0 || res.Verdict == nil {
				t.Errorf("post-done step = %+v, want done, empty", res)
			}
		})
	}
}

func verdictSeed(sp Spec) *int64 {
	if sp.Seed != nil {
		return sp.Seed
	}
	return ptr(42)
}

// TestSpecValidation: every malformed spec is an ErrBadSpec before any
// machine boots.
func TestSpecValidation(t *testing.T) {
	r := newTestRegistry(t, Options{})
	bad := []Spec{
		{},              // missing channel
		{Channel: "l3"}, // unknown channel
		{Channel: "l1d", Scenario: "off"},
		{Channel: "l1d", Platform: "riscv"},
		{Channel: "l1d", Samples: -1},
		{Channel: "l1d", PadMicros: -2},
		{Channel: "l1d", PadMicros: math.Nextafter(MaxPadMicros, math.Inf(1))},
		{Channel: "l1d", Trace: "loud"},
	}
	for _, sp := range bad {
		if _, err := r.Create(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Create(%+v) err = %v, want ErrBadSpec", sp, err)
		}
	}
	if got := r.Stats().Created; got != 0 {
		t.Errorf("created = %d after only bad specs", got)
	}

	// Defaults echo back normalized.
	s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Spec()
	if sp.Scenario != "raw" || sp.Platform != "haswell" || sp.Trace != TraceProtocol ||
		sp.Seed == nil || *sp.Seed != 42 {
		t.Errorf("normalized spec = %+v, want raw/haswell/protocol/seed 42", sp)
	}
}

// TestPadMicrosBound: a pad of exactly MaxPadMicros boots and steps
// on both platforms, its cycle count fitting a uint64. The next float
// above it is rejected in TestSpecValidation.
func TestPadMicrosBound(t *testing.T) {
	r := newTestRegistry(t, Options{})
	for _, plat := range []string{"haswell", "sabre"} {
		p, _ := hw.PlatformByName(plat)
		if c := p.MicrosToCycles(MaxPadMicros); float64(c) != MaxPadMicros*p.ClockHz/1e6 {
			t.Errorf("%s: MicrosToCycles(MaxPadMicros) = %d, want %v", plat, c, MaxPadMicros*p.ClockHz/1e6)
		}
		s, err := r.Create(Spec{Channel: "kernel", Scenario: "protected", Platform: plat,
			Samples: 4, PadMicros: MaxPadMicros, Trace: TraceOff})
		if err != nil {
			t.Fatalf("%s: pad at the bound: %v", plat, err)
		}
		if got := s.Spec().PadMicros; got != MaxPadMicros {
			t.Errorf("%s: echoed pad_micros = %v", plat, got)
		}
		if _, err := s.Step(2); err != nil {
			t.Errorf("%s: step with pad at the bound: %v", plat, err)
		}
		r.Delete(s.ID)
	}
}

// TestMaxSessionsCap: the registry rejects creation at the cap with
// ErrLimit, counts the rejection, and admits again after a delete.
func TestMaxSessionsCap(t *testing.T) {
	r := newTestRegistry(t, Options{MaxSessions: 1})
	s1, err := r.Create(Spec{Channel: "l1d", Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(Spec{Channel: "l1d", Samples: 8}); !errors.Is(err, ErrLimit) {
		t.Fatalf("second create err = %v, want ErrLimit", err)
	}
	if st := r.Stats(); st.Rejected != 1 || st.Active != 1 {
		t.Errorf("stats = %+v, want rejected=1 active=1", st)
	}
	if !r.Delete(s1.ID) {
		t.Fatal("delete failed")
	}
	if _, err := r.Create(Spec{Channel: "l1d", Samples: 8}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestStepAfterDelete: a deleted session is gone from the registry and
// refuses further steps with ErrClosed.
func TestStepAfterDelete(t *testing.T) {
	r := newTestRegistry(t, Options{})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if !r.Delete(s.ID) {
		t.Fatal("delete failed")
	}
	if r.Delete(s.ID) {
		t.Error("second delete of the same ID succeeded")
	}
	if _, ok := r.Get(s.ID); ok {
		t.Error("deleted session still resolvable")
	}
	if _, err := s.Step(1); !errors.Is(err, ErrClosed) {
		t.Errorf("step after delete err = %v, want ErrClosed", err)
	}
	if st := r.Stats(); st.Closed != 1 || st.Active != 0 {
		t.Errorf("stats = %+v, want closed=1 active=0", st)
	}
}

// TestSlowConsumerDropsNotBlocks: a subscriber that never reads loses
// events — counted at the subscriber, session and registry — while the
// simulation steps to completion unimpeded. TraceAll + a tiny buffer
// makes the overflow certain; the test deadlocks (and times out) if
// publishing could ever block.
func TestSlowConsumerDropsNotBlocks(t *testing.T) {
	r := newTestRegistry(t, Options{EventBuffer: 4, MIWindow: 5})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 16, Trace: TraceAll})
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// A live reader drains concurrently, proving drops are per
	// subscriber, not global.
	reader, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var read int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-reader.C:
				read++
			case <-reader.Done:
				for {
					select {
					case <-reader.C:
						read++
					default:
						return
					}
				}
			}
		}
	}()

	for {
		res, err := s.Step(4)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if res.Done {
			break
		}
	}
	if got := stalled.Dropped(); got == 0 {
		t.Error("stalled subscriber dropped nothing; buffer should have overflowed")
	}
	st := s.Status()
	if st.EventsDropped == 0 || st.EventsPublished == 0 {
		t.Errorf("status = %+v, want published and dropped > 0", st)
	}
	rs := r.Stats()
	if rs.EventsDropped == 0 || rs.EventsPublished == 0 {
		t.Errorf("registry stats = %+v, want published and dropped > 0", rs)
	}
	r.Delete(s.ID)
	wg.Wait()
	if read == 0 {
		t.Error("live reader saw no events")
	}
}

// TestIdleReapMidStream: a session idle past the TTL is reaped even
// while a stream is attached — the subscriber gets a closed event with
// reason "idle" and its Done channel closes; stepping afterwards is
// ErrClosed. Time is injected, so the test is deterministic.
func TestIdleReapMidStream(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	r := newTestRegistry(t, Options{IdleTTL: time.Minute, ReapInterval: time.Hour, Clock: clock})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Still fresh: nothing reaped.
	r.ReapNow()
	if _, ok := r.Get(s.ID); !ok {
		t.Fatal("fresh session reaped")
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	r.ReapNow()

	if _, ok := r.Get(s.ID); ok {
		t.Error("idle session still live after reap")
	}
	select {
	case <-sub.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber Done not closed by reap")
	}
	var sawClosed bool
	for drained := false; !drained; {
		select {
		case ev := <-sub.C:
			if ev.Type == "closed" {
				if c, ok := ev.Data.(Closed); !ok || c.Reason != CloseIdle {
					t.Errorf("closed event = %+v, want reason %q", ev.Data, CloseIdle)
				}
				sawClosed = true
			}
		default:
			drained = true
		}
	}
	if !sawClosed {
		t.Error("no closed event on the stream after reap")
	}
	if _, err := s.Step(1); !errors.Is(err, ErrClosed) {
		t.Errorf("step after reap err = %v, want ErrClosed", err)
	}
	if st := r.Stats(); st.Reaped != 1 || st.Active != 0 || st.Subscribers != 0 {
		t.Errorf("stats = %+v, want reaped=1 active=0 subscribers=0", st)
	}
}

// TestSubscriberLimit: per-session streams are capped; closing one
// frees the slot.
func TestSubscriberLimit(t *testing.T) {
	r := newTestRegistry(t, Options{MaxSubscribers: 1})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(); !errors.Is(err, ErrSubscriberLimit) {
		t.Fatalf("second subscribe err = %v, want ErrSubscriberLimit", err)
	}
	sub.Close()
	sub2, err := s.Subscribe()
	if err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
	sub2.Close()
}

// TestLifecycleCountersBalance: Created == Active + Closed + Reaped
// across a mix of creations, deletions, reaps and a registry shutdown.
func TestLifecycleCountersBalance(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := NewRegistry(Options{IdleTTL: time.Minute, ReapInterval: time.Hour, Clock: clock})
	mk := func() *Session {
		s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, _ := mk(), mk()
	r.Delete(s1.ID)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	r.ReapNow() // reaps the survivor of the first pair
	s3 := mk()
	_ = s3
	check := func() {
		st := r.Stats()
		if st.Created != uint64(st.Active)+st.Closed+st.Reaped {
			t.Errorf("unbalanced stats: %+v", st)
		}
	}
	check()
	r.Close() // shuts the remaining session; List must be empty after
	check()
	if st := r.Stats(); st.Active != 0 || st.Created != 3 || st.Reaped != 1 || st.Closed != 2 {
		t.Errorf("final stats = %+v, want created=3 reaped=1 closed=2 active=0", st)
	}
	if _, err := r.Create(Spec{Channel: "l1d", Samples: 8}); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("create after Close err = %v, want ErrRegistryClosed", err)
	}
}

// TestListOrder: List returns sessions in creation order with stable
// IDs.
func TestListOrder(t *testing.T) {
	r := newTestRegistry(t, Options{})
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := r.Create(Spec{Channel: "l1d", Samples: 8})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("list has %d sessions, want 3", len(list))
	}
	for i, s := range list {
		if s.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (creation order)", i, s.ID, ids[i])
		}
	}
}

// TestConcurrentStepStreamStatus: stepping, streaming, status polls and
// a mid-flight delete race without locking up — run under -race this
// is the session layer's concurrency proof.
func TestConcurrentStepStreamStatus(t *testing.T) {
	r := newTestRegistry(t, Options{EventBuffer: 8, MIWindow: 2})
	s, err := r.Create(Spec{Channel: "kernel", Samples: 40, Trace: TraceAll})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // stepper
		defer wg.Done()
		for {
			res, err := s.Step(3)
			if err != nil || res.Done {
				return
			}
		}
	}()
	go func() { // streamer
		defer wg.Done()
		for {
			select {
			case <-sub.C:
			case <-sub.Done:
				return
			}
		}
	}()
	go func() { // status poller + deleter
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = s.Status()
		}
		r.Delete(s.ID)
	}()
	wg.Wait()
	if !s.Closed() {
		t.Error("session not closed after delete")
	}
}

// TestHaswellPlatformExists guards the test fixtures' assumption.
func TestHaswellPlatformExists(t *testing.T) {
	if _, ok := hw.PlatformByName("haswell"); !ok {
		t.Fatal("haswell platform missing")
	}
}
