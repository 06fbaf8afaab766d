package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupPanicLeavesKeyRetryable is the wedged-key regression test:
// a flight whose fn panicked used to stay registered with a done
// channel nobody would ever close, so every later call for that key
// blocked forever. Cleanup now runs in a defer and the panic becomes an
// ErrPanic error.
func TestGroupPanicLeavesKeyRetryable(t *testing.T) {
	var g Group[string, []byte]

	entered := make(chan struct{})
	proceed := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() ([]byte, error) {
			close(entered)
			<-proceed
			panic("boom")
		})
		leaderErr <- err
	}()
	<-entered

	// Join the in-flight call as a waiter, then let the leader panic.
	// (If this goroutine loses the race and arrives after cleanup it
	// runs fn itself, which is equally correct — the key is live.)
	waiter := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() ([]byte, error) { return []byte("fresh"), nil })
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(proceed)

	if err := <-leaderErr; !errors.Is(err, ErrPanic) {
		t.Fatalf("leader error = %v, want ErrPanic", err)
	}
	select {
	case err := <-waiter:
		if err != nil && !errors.Is(err, ErrPanic) {
			t.Fatalf("waiter error = %v, want nil or the shared ErrPanic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the panicking flight — key wedged")
	}

	// The key must be retryable: a later call runs fn again and
	// succeeds instead of blocking on the dead flight.
	done := make(chan struct{})
	go func() {
		body, err, _ := g.Do("k", func() ([]byte, error) { return []byte("retry ok"), nil })
		if err != nil || string(body) != "retry ok" {
			t.Errorf("retry after panic = %q, %v", body, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panicking flight blocked — key wedged")
	}

	if n := g.InFlight(); n != 0 {
		t.Errorf("%d flights leaked", n)
	}
	if g.Panics() != 1 {
		t.Errorf("panics counter = %d, want 1", g.Panics())
	}
}

// TestGroupPanicReachesEveryWaiter: every caller of a panicking key —
// the one computing and all who joined its flight — gets the same
// ErrPanic error, and the shared and panic counters account for every
// call.
func TestGroupPanicReachesEveryWaiter(t *testing.T) {
	var g Group[string, int]
	entered := make(chan struct{})
	proceed := make(chan struct{})
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0], _ = g.Do("k", func() (int, error) {
			close(entered)
			<-proceed
			panic("boom")
		})
	}()
	<-entered
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A caller that arrives after the flight ends runs fn
			// itself; it panics the same way, so the error matches.
			_, errs[i], _ = g.Do("k", func() (int, error) { panic("boom") })
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(proceed)
	wg.Wait()

	want := fmt.Errorf("%w: %v", ErrPanic, "boom").Error()
	for i, err := range errs {
		if !errors.Is(err, ErrPanic) || err.Error() != want {
			t.Errorf("caller %d: err = %v, want %q", i, err, want)
		}
	}
	if got := g.Shared() + g.Panics(); got != callers {
		t.Errorf("shared %d + panics %d = %d, want %d calls accounted", g.Shared(), g.Panics(), got, callers)
	}
	if g.InFlight() != 0 {
		t.Errorf("%d flights leaked", g.InFlight())
	}
}

// TestGroupCollapses: concurrent callers share one run and are counted
// as shared.
func TestGroupCollapses(t *testing.T) {
	var g Group[int, int]
	var runs atomic.Int32
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, _ := g.Do(1, func() (int, error) {
				runs.Add(1)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := uint64(runs.Load()) + g.Shared(); got != callers {
		t.Errorf("runs %d + shared %d = %d, want %d", runs.Load(), g.Shared(), got, callers)
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLRU[string, []byte](2, func(b []byte) int64 { return int64(len(b)) })
	l.Put("a", []byte("aaa"))
	l.Put("b", []byte("bbb"))
	if _, ok := l.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	if _, ok := l.Peek("b"); !ok { // Peek must not refresh b
		t.Fatal("b missing")
	}
	l.Put("c", []byte("cc"))
	if _, ok := l.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := l.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	l.Put("a", []byte("ignored"))
	if v, _ := l.Peek("a"); string(v) != "aaa" {
		t.Errorf("Put over an existing key replaced it: %q", v)
	}
	st := l.Stats()
	want := Stats{Hits: 2, Misses: 1, Entries: 2, Capacity: 2, Bytes: int64(len("aaa") + len("cc")), Evictions: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	l.Reset()
	if st := l.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Errorf("after Reset stats = %+v, want empty with counters kept", st)
	}
	if _, ok := l.Peek("a"); ok {
		t.Error("Reset kept an entry")
	}
}

// TestMemoRetainsOnlySuccesses: a success is retained and served as a
// hit; an error reaches the caller and the next caller computes again.
func TestMemoRetainsOnlySuccesses(t *testing.T) {
	m := New[string, int](4, nil)
	boom := errors.New("boom")
	if _, hit, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failing Do = hit %v, err %v", hit, err)
	}
	if _, _, err := m.Do("p", func() (int, error) { panic("p") }); !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking Do err = %v, want ErrPanic", err)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("errors retained: %+v", st)
	}
	for i, wantHit := range []bool{false, true, true} {
		v, hit, err := m.Do("k", func() (int, error) { return 42, nil })
		if v != 42 || err != nil || hit != wantHit {
			t.Fatalf("call %d = %d, hit %v, %v; want 42, hit %v", i, v, hit, err, wantHit)
		}
	}
	v, hit, err := m.Do("p", func() (int, error) { return 9, nil })
	if v != 9 || hit || err != nil {
		t.Fatalf("retry after panic = %d, hit %v, %v", v, hit, err)
	}
}

// TestMemoInFlightNeverEvicted: while a key is computing, a flood of
// other keys churns the bound; the in-flight key's waiters still share
// its single run and its result is retained when it lands.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	m := New[int, int](1, nil)
	var runs atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := func() (int, error) {
		if runs.Add(1) == 1 {
			close(entered)
		}
		<-release
		return 100, nil
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if v, _, _ := m.Do(0, slow); v != 100 {
			t.Errorf("leader got %d", v)
		}
	}()
	<-entered
	go func() {
		defer wg.Done()
		if v, _, _ := m.Do(0, slow); v != 100 {
			t.Errorf("waiter got %d", v)
		}
	}()
	for k := 1; k <= 10; k++ {
		m.Do(k, func() (int, error) { return k, nil })
	}
	if st := m.Stats(); st.Entries != 1 || st.Evictions != 9 {
		t.Fatalf("stats during flight = %+v, want 1 entry, 9 evictions", st)
	}
	if m.group.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", m.group.InFlight())
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("in-flight key computed %d times, want 1", runs.Load())
	}
	if v, hit, _ := m.Do(0, slow); v != 100 || !hit {
		t.Errorf("landed result not retained: %d, hit %v", v, hit)
	}
	if st := m.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d above the bound", st.Entries)
	}
}
