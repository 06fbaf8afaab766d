package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"timeprotection/internal/snapshot"
)

// loadPhase runs nproc closed-loop clients against a deployment: a
// warm-up that fills the caches, then the measured phase, split into
// equal windows. Every shard restarts at fixed fractions of the
// measured phase while the clients are paused; pauses do not count as
// active time.
type loadPhase struct {
	d       *deployment
	warm    time.Duration
	measure time.Duration
	windows int

	gate   sync.RWMutex // clients hold it shared per operation; a restart holds it exclusively
	start  time.Time
	paused time.Duration // guarded by gate
	epoch  int           // restarts so far, guarded by gate

	cpuAtWarm time.Duration // process CPU when the measured phase began
	cpuUsed   time.Duration // process CPU over the measured phase

	transport *http.Transport
	client    *http.Client

	errMu sync.Mutex
	errs  []string // the first few request failures, for the run's notes
}

// requestTimeout bounds one client request; a timeout counts as failed.
const requestTimeout = 60 * time.Second

// measureWindows is how many windows the measured phase is split into.
// Latency percentiles are taken per window and the median window is
// reported, so a burst of host contention in one window does not move a
// run's figures.
const measureWindows = 10

func newLoadPhase(d *deployment, cfg runConfig) *loadPhase {
	t := &http.Transport{
		MaxConnsPerHost:     clients(),
		MaxIdleConnsPerHost: clients(),
		IdleConnTimeout:     90 * time.Second,
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	return &loadPhase{
		d:         d,
		warm:      measure / 5,
		measure:   measure,
		windows:   measureWindows,
		transport: t,
		client:    &http.Client{Transport: t, Timeout: requestTimeout},
	}
}

// windowLen is the active time one window spans.
func (p *loadPhase) windowLen() time.Duration { return p.measure / time.Duration(p.windows) }

// run starts the clients, performs the restarts at the given fractions
// of the measured phase, and returns the wall time of the measured
// phase (restart pauses included) once every client has finished.
// client(i) runs client i's whole loop, calling p.do per operation.
func (p *loadPhase) run(fractions []float64, client func(i int)) (wall time.Duration, restartErr error) {
	p.start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client(i)
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(p.warm):
	}
	p.cpuAtWarm = processCPU()
restarts:
	for _, f := range fractions {
		p.gate.RLock()
		due := p.start.Add(p.paused + p.warm + time.Duration(f*float64(p.measure)))
		p.gate.RUnlock()
		select {
		case <-done:
			break restarts
		case <-time.After(time.Until(due)):
		}
		if err := p.restart(); err != nil && restartErr == nil {
			restartErr = err
		}
	}
	<-done
	p.cpuUsed = processCPU() - p.cpuAtWarm
	p.transport.CloseIdleConnections()
	return time.Since(p.start) - p.warm, restartErr
}

// restart pauses the clients, restarts every shard, and resumes.
func (p *loadPhase) restart() error {
	p.gate.Lock()
	defer p.gate.Unlock()
	t0 := time.Now()
	err := p.d.restart()
	p.transport.CloseIdleConnections()
	p.paused += time.Since(t0)
	p.epoch++
	return err
}

// opSlot places one operation in the run.
type opSlot struct {
	epoch  int // restarts before the operation
	window int // measured window, or -1 during the warm-up
}

// do runs one client operation under the gate. It returns false, without
// running op, once the run's active time is used up.
func (p *loadPhase) do(op func(opSlot)) bool {
	p.gate.RLock()
	defer p.gate.RUnlock()
	active := time.Since(p.start) - p.paused
	if active >= p.warm+p.measure {
		return false
	}
	w := -1
	if active >= p.warm {
		w = int((active - p.warm) / p.windowLen())
		if w >= p.windows {
			w = p.windows - 1
		}
	}
	op(opSlot{epoch: p.epoch, window: w})
	return true
}

// shardURL is the base URL of shard i.
func (p *loadPhase) shardURL(i int) string { return "http://" + p.d.addrs[i] }

// call performs one request and reads the whole body; any transport
// error, timeout or non-2xx status is an error.
func (p *loadPhase) call(req *http.Request) (resp *http.Response, body []byte, lat time.Duration, err error) {
	defer func() {
		if err != nil {
			p.errMu.Lock()
			if len(p.errs) < 5 {
				p.errs = append(p.errs, err.Error())
			}
			p.errMu.Unlock()
		}
	}()
	t0 := time.Now()
	resp, err = p.client.Do(req)
	if err != nil {
		return nil, nil, time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	if err != nil {
		return resp, nil, lat, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp, body, lat, fmt.Errorf("%s %s: %s: %.200s", req.Method, req.URL.Path, resp.Status, body)
	}
	return resp, body, lat, nil
}

// windowed is a latency record per measured window, in ms; a failed
// operation is +Inf so that it misses every latency limit. Warm-up
// operations are not recorded.
type windowed [][]float64

func newWindowed() windowed { return make(windowed, measureWindows) }

func (w windowed) add(slot opSlot, d time.Duration, err error) {
	if slot.window < 0 {
		return
	}
	v := ms(d)
	if err != nil {
		v = math.Inf(1)
	}
	w[slot.window] = append(w[slot.window], v)
}

func (w windowed) merge(o windowed) {
	for i := range w {
		w[i] = append(w[i], o[i]...)
	}
}

// reportWindows sets lat_p50_ms and lat_p90_ms from the median window,
// client.lat_p99_ms likewise when every window holds enough requests for
// ten to lie beyond its 99th percentile (otherwise over the whole
// measured phase), and req_per_cpu_s: the measured requests per second
// of process CPU. Serve keeps its one processor busy, so requests per
// wall-clock second mostly tracked how much CPU the host granted the
// run (it varied by a quarter between runs while this per-CPU rate
// varied by a tenth).
func reportWindows(rep *report, p *loadPhase, w windowed) {
	var p50s, p90s, p99s, all []float64
	perWindow := true
	for _, lats := range w {
		p50s = append(p50s, quantile(lats, 0.5))
		p90s = append(p90s, quantile(lats, 0.9))
		p99s = append(p99s, quantile(lats, 0.99))
		all = append(all, lats...)
		perWindow = perWindow && len(lats) >= 1000
	}
	rep.set("req_per_cpu_s", float64(len(all))/p.cpuUsed.Seconds())
	rep.set("lat_p50_ms", median(p50s))
	rep.set("lat_p90_ms", median(p90s))
	if perWindow {
		rep.set("client.lat_p99_ms", median(p99s))
	} else {
		rep.set("client.lat_p99_ms", quantile(all, 0.99))
	}
}

// tally counts one operation of a request class.
func tally(c *classCount, err error) {
	c.Attempted++
	if err != nil {
		c.Failed++
	} else {
		c.Succeeded++
	}
}

// serveProcs is the Go processor count of the serve workload. It keeps
// nproc clients and nproc service workers, but runs all Go code of the
// process on one processor: serve keeps the CPU saturated, and on 2-vCPU
// cloud hosts the second vCPU loses a large and changing share of its
// time to hypervisor steal (17-48% measured while developing this
// benchmark), which made two runs of one seed differ twofold in
// throughput. On one processor its figures track the CPU cost of the
// serving paths. The sessions workload waits on the disk more than on
// the CPU and keeps nproc processors.
const serveProcs = 1

// setupDeployment brings the deployment up five times (two at smoke
// size) on fresh store directories, reporting the median bring-up time
// as setup_s, and returns the last one running.
func setupDeployment(cfg runConfig, rep *report, c *layerCounters) (*deployment, string, error) {
	rep.note("%s: %d clients, %d service workers per shard, GOMAXPROCS=%d", cfg.workload, clients(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	reps := 5
	if cfg.smoke {
		reps = 2
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	var times []float64
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		root := filepath.Join(base, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		var err error
		d, err = startDeployment(root, rep.tr, c)
		if err != nil {
			os.RemoveAll(base)
			return nil, "", err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(times))
	c.mu.Lock()
	c.openMS = nil // only restarts count towards store.open_ms
	c.mu.Unlock()
	return d, base, nil
}

// endPhase stops the deployment and reports what every serving workload
// reports once its load phase is over: the process's CPU and the wall
// time of the measured phase, and the layer counters. The workload
// reports heap_mb itself, once it no longer holds its per-request
// records, so that the benchmark's own bookkeeping does not count.
func endPhase(rep *report, p *loadPhase, c *layerCounters, wall time.Duration) {
	rep.set("cpu_s", p.cpuUsed.Seconds())
	for _, e := range p.errs {
		rep.note("request failed: %s", e)
	}
	rep.set("wall_s", wall.Seconds())
	p.d.stop()
	rep.set("experiments.runs", float64(c.runs.Load()))
	rep.set("experiments.run_ms", median(rep.tr.durations("experiments.PlanEntry.Output", "")))
	rep.set("cluster.forwards", float64(c.forwards.Load()))
	rep.set("cluster.session_proxies", float64(c.proxies.Load()))
	rep.set("cluster.replication_puts", float64(c.replPuts.Load()))
	rep.set("cluster.replicated_bytes", float64(c.replBytes.Load()))
	var hops []float64
	for _, kind := range []string{"forward", "proxy", "replicate"} {
		hops = append(hops, rep.tr.durations("cluster.hop", kind)...)
	}
	rep.set("cluster.hop_p50_ms", quantile(hops, 0.5))
	rep.set("cluster.hop_p99_ms", quantile(hops, 0.99))
	c.mu.Lock()
	rep.set("store.open_ms", median(c.openMS))
	rep.set("store.puts", float64(c.storeSt.Puts))
	rep.set("store.updates", float64(c.storeSt.Updates))
	rep.set("store.hits", float64(c.storeSt.Hits))
	rep.set("store.misses", float64(c.storeSt.Misses))
	c.mu.Unlock()
	updates := rep.tr.durations("store.Update", "")
	rep.set("store.update_p50_ms", quantile(updates, 0.5))
	rep.set("store.update_p99_ms", quantile(updates, 0.99))
	if n := c.journalUpdates.Load(); n > 0 {
		rep.set("store.update_bytes_per_step", float64(c.journalBytes.Load())/float64(n))
	}
}

// traceWindow is how long a traced serving run records spans before
// switching recording off for as long, and back.
const traceWindow = 200 * time.Millisecond

// windowLats splits a traced run's successful request latencies by
// whether spans were being recorded when the request started.
type windowLats struct{ traced, plain []float64 }

func (w *windowLats) add(tr *tracer, traced bool, slot opSlot, lat time.Duration, err error) {
	switch {
	case !tr.enabled || err != nil || slot.window < 0:
	case traced:
		w.traced = append(w.traced, ms(lat))
	default:
		w.plain = append(w.plain, ms(lat))
	}
}

func (w *windowLats) merge(o windowLats) {
	w.traced = append(w.traced, o.traced...)
	w.plain = append(w.plain, o.plain...)
}

// tracedEnd reports the tracing overhead of a serving run, as the
// relative difference of the median request latency between traced and
// untraced windows, the span count, and the snapshot probe.
func tracedEnd(rep *report, w windowLats) error {
	if p := median(w.plain); p > 0 {
		rep.set("trace.overhead_pct", 100*(median(w.traced)-p)/p)
	}
	rep.set("trace.spans", float64(rep.tr.count()))
	capture, fork, err := probeSnapshot()
	if err != nil {
		return err
	}
	rep.set("snapshot.capture_ms", capture)
	rep.set("snapshot.fork_ms", fork)
	return nil
}

// reportSnapshotCounters reports this process's snapshot layer counters.
func reportSnapshotCounters(rep *report) {
	snap := snapshot.Stats()
	rep.set("snapshot.captures", float64(snap.Captures))
	rep.set("snapshot.forks", float64(snap.Forks))
	rep.set("snapshot.memo_hits", float64(snap.MemoHits))
}
