package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Spans caused by one client request carry
// that request's ID in Req (where the wrapper can tell which request it
// serves) and its span ID in Parent.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`
	Attr   string  `json:"attr,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A
// tracer built for an untraced run never records; in a traced run, on
// switches recording on and off so that the serving workloads can
// alternate traced and untraced windows and price the tracing itself.
type tracer struct {
	enabled bool
	on      atomic.Bool
	t0      time.Time
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []span

	// inflight maps a resource key (an artefact's cache key, a
	// session's journal key) to the client request currently working
	// on it, so a wrapper deeper in the stack can name its cause.
	inflight sync.Map
}

func newTracer(enabled bool) *tracer {
	t := &tracer{enabled: enabled, t0: time.Now()}
	t.on.Store(enabled)
	return t
}

// recording reports whether spans are being kept right now.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// newID allocates a span (and client request) ID.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is add for a span timed by start and end.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time, attr string, bytes int64) {
	t.add(span{
		ID: t.newID(), Parent: parent, Req: req, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
		Attr: attr, Bytes: bytes,
	})
}

// cause returns the client request span working on key, if any.
func (t *tracer) cause(key string) uint64 {
	if v, ok := t.inflight.Load(key); ok {
		return v.(uint64)
	}
	return 0
}

// begin marks the client request id as working on key until end runs.
func (t *tracer) begin(key string, id uint64) (end func()) {
	t.inflight.Store(key, id)
	return func() { t.inflight.CompareAndDelete(key, id) }
}

// durations returns the durations in ms of the spans with the given
// name whose Attr matches attr ("" matches any).
func (t *tracer) durations(name, attr string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// alternate toggles recording every period until stop closes, so a
// traced serving run measures traced and untraced windows side by side.
// It returns once it has stopped, leaving recording off.
func (t *tracer) alternate(period time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			t.on.Store(false)
			return
		case <-tick.C:
			t.on.Store(!t.on.Load())
		}
	}
}

// alternateWhile starts alternate in a traced run and returns the
// function that stops it and waits for it; in an untraced run both are
// no-ops.
func (t *tracer) alternateWhile() (stop func()) {
	if !t.enabled {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.alternate(traceWindow, quit)
	}()
	return func() {
		close(quit)
		<-done
	}
}
