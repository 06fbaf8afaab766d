package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
)

func TestPoolRunsEverythingAndDrains(t *testing.T) {
	p := NewPool(3, 8)
	var done atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Submit(context.Background(), func() { done.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	if done.Load() != 8 {
		t.Fatalf("drained %d of 8 tasks", done.Load())
	}
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("submit after close = %v, want ErrPoolClosed", err)
	}
	if st := p.Stats(); st.Completed != 8 {
		t.Errorf("completed = %d, want 8", st.Completed)
	}
}

func TestPoolTrySubmitBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started                       // worker busy
	p.TrySubmit(func() { <-block }) // queue slot taken
	err := p.TrySubmit(func() {})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestPoolSubmitHonoursContext(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started
	p.TrySubmit(func() { <-block })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Submit(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit on cancelled ctx = %v", err)
	}
	close(block)
}

// TestPoolSurvivesPanickingTasks is the worker-death regression test:
// a panicking task used to kill its worker goroutine permanently and
// leave active incremented forever, so N panics silently shrank the
// pool to zero while /metricz reported phantom active work.
func TestPoolSurvivesPanickingTasks(t *testing.T) {
	p := NewPool(2, 8)
	for i := 0; i < 4; i++ {
		if err := p.Submit(context.Background(), func() { panic("task boom") }); err != nil {
			t.Fatalf("submit panicking task %d: %v", i, err)
		}
	}
	// The pool must still complete fresh work on its full complement of
	// workers after every worker has absorbed panics.
	var done atomic.Int64
	for i := 0; i < 4; i++ {
		if err := p.Submit(context.Background(), func() { done.Add(1) }); err != nil {
			t.Fatalf("submit after panics: %v", err)
		}
	}
	p.Close() // hangs (and fails the test) if any worker died
	if done.Load() != 4 {
		t.Fatalf("completed %d of 4 post-panic tasks", done.Load())
	}
	st := p.Stats()
	if st.Panics != 4 {
		t.Errorf("panics = %d, want 4", st.Panics)
	}
	if st.Active != 0 {
		t.Errorf("active = %d after drain, want 0 (no phantom work)", st.Active)
	}
	if st.Completed != 8 {
		t.Errorf("completed = %d, want 8 (panicking tasks still count)", st.Completed)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("aaa"))
	c.Put("b", []byte("bbb"))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("cc"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Bytes != int64(len("aaa")+len("cc")) {
		t.Errorf("bytes = %d", st.Bytes)
	}
}

// TestContentKeyStable pins the key the service's cache tiers are
// addressed by: deterministic, distinct per request and 64 hex chars.
func TestContentKeyStable(t *testing.T) {
	x := experiments.PlanEntry{
		Artefact: mustArtefact(t, "table2"),
		Config:   experiments.Config{Platform: hw.Haswell(), Samples: 30}.Canonical(),
	}
	y := x
	y.Config.Samples = 31
	if x.CacheKey() != x.CacheKey() {
		t.Error("content key not deterministic")
	}
	if x.CacheKey() == y.CacheKey() {
		t.Error("content key collides trivially")
	}
	if len(x.CacheKey()) != 64 {
		t.Errorf("content key length %d, want 64 hex chars", len(x.CacheKey()))
	}
}
