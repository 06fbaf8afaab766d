package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"time"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/session"
)

// Sessions workload shape. The spec pool has a fixed composition and
// clients open sessions from it in turn, with step sizes cycling through
// 1..sessionMaxRounds, so every seed gives a run of the same shape: the
// seed draws each spec's attack seed and where each client starts in
// the pool and in the step-size cycle.
const (
	sessionSamples   = 200 // samples per session (the API default)
	sessionSmokeSize = 12
	sessionSlots     = 6 // live sessions per client
	sessionMaxRounds = 4 // a step asks for 1..sessionMaxRounds rounds
)

// sessionRestarts are the fractions of the measured phase at which every
// shard restarts.
var sessionRestarts = []float64{0.2, 0.4, 0.6, 0.8}

// sessionShapes are the pool's (channel, platform, scenario) triples:
// intra-core, kernel and interrupt channels on both platforms, raw and
// protected.
var sessionShapes = [][3]string{
	{"l1d", "haswell", "raw"}, {"l1d", "sabre", "protected"},
	{"tlb", "haswell", "protected"}, {"btb", "sabre", "raw"},
	{"kernel", "haswell", "raw"}, {"kernel", "sabre", "protected"},
	{"kernel", "haswell", "protected"}, {"kernel", "sabre", "raw"},
	{"interrupt", "haswell", "raw"}, {"interrupt", "sabre", "protected"},
	{"interrupt", "haswell", "protected"}, {"interrupt", "sabre", "raw"},
}

// sessionPool draws the run's session specs: one per shape, each with an
// attack seed drawn from the workload seed.
func sessionPool(seed int64, samples int) []session.Spec {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]session.Spec, len(sessionShapes))
	for i, sh := range sessionShapes {
		s := rng.Int63n(1000000)
		pool[i] = session.Spec{Channel: sh[0], Platform: sh[1], Scenario: sh[2], Samples: samples, Seed: &s}
	}
	return pool
}

// oneShot is the tpattack-equivalent run of a session spec: the channel
// run in one go, then mi.Analyze seeded as the session seeds it.
func oneShot(sp session.Spec) (mi.Result, error) {
	plat, ok := hw.PlatformByName(sp.Platform)
	if !ok {
		return mi.Result{}, fmt.Errorf("unknown platform %q", sp.Platform)
	}
	sc := kernel.ScenarioRaw
	switch sp.Scenario {
	case "fullflush":
		sc = kernel.ScenarioFullFlush
	case "protected":
		sc = kernel.ScenarioProtected
	}
	cs := channel.Spec{
		Platform: plat, Scenario: sc, Samples: sp.Samples, Seed: *sp.Seed,
		PadMicros: sp.PadMicros, DisablePrefetcher: sp.DisablePrefetcher,
	}
	var ds *mi.Dataset
	var err error
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
		return mi.Result{}, err
	}
	return mi.Analyze(ds, rand.New(rand.NewSource(*sp.Seed))), nil
}

// sessionVerdict is one completed session's final verdict.
type sessionVerdict struct {
	spec    int
	id      string
	verdict session.Verdict
}

// checkVerdicts compares every completed session's verdict with the
// one-shot run of its spec.
func checkVerdicts(pool []session.Spec, got []sessionVerdict) []string {
	want := map[int]mi.Result{}
	var problems []string
	for _, v := range got {
		r, ok := want[v.spec]
		if !ok {
			var err error
			if r, err = oneShot(pool[v.spec]); err != nil {
				problems = append(problems, fmt.Sprintf("spec %d: one-shot run: %v", v.spec, err))
				continue
			}
			want[v.spec] = r
		}
		w := session.Verdict{MBits: r.M, M0Bits: r.M0, N: r.N, Leak: r.Leak(), Summary: r.String()}
		if v.verdict != w {
			problems = append(problems, fmt.Sprintf("session %s (%s/%s/%s): verdict %+v, one-shot %+v",
				v.id, pool[v.spec].Channel, pool[v.spec].Platform, pool[v.spec].Scenario, v.verdict, w))
		}
	}
	return problems
}

// slot is one live session a client keeps stepping.
type slot struct {
	spec   int
	id     string
	seq    uint64
	rounds int       // rounds applied so far
	epoch  int       // restart epoch of the last operation
	lats   []float64 // step latencies in order
}

// sessionClient is one closed-loop client's record.
type sessionClient struct {
	create, step, del classCount
	lats              windowed
	createLats        []float64
	restores          []float64
	replayed          int
	steps             int
	firsts, lasts     []float64 // step latencies in each session's first and last tenth
	verdicts          []sessionVerdict
	windows           windowLats
	minted            []string // IDs of the sessions created
	failedIDs         []string // per failed operation, the session it concerned ("" if unknown)
}

// alreadyLive matches the error a shard returns when it is asked to
// create a session under the ID of one it holds live.
var alreadyLive = regexp.MustCompile(`session id \\?"([^"\\]+)\\?" already live`)

// failedCreateID is the session ID a failed create names, if any.
func failedCreateID(err error) string {
	if m := alreadyLive.FindStringSubmatch(err.Error()); m != nil {
		return m[1]
	}
	return ""
}

// reusedIDs are the session IDs the deployment handed out more than
// once: created twice, or refused as already live. A restarted shard
// mints IDs from 1 again and checks only its own registry and journal,
// so it can reuse the ID of a live session another shard owns; the
// failures and verdict mismatches on these IDs are that program defect.
func reusedIDs(cls []*sessionClient) map[string]bool {
	n := map[string]int{}
	reused := map[string]bool{}
	for _, sc := range cls {
		for _, id := range sc.minted {
			if n[id]++; n[id] > 1 {
				reused[id] = true
			}
		}
	}
	return reused
}

// runSessions is the sessions workload.
func runSessions(cfg runConfig, rep *report) error {
	c := &layerCounters{}
	d, base, err := setupDeployment(cfg, rep, c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	samples := sessionSamples
	if cfg.smoke {
		samples = sessionSmokeSize
	}
	pool := sessionPool(cfg.seed, samples)
	p := newLoadPhase(d, cfg)
	cls := make([]*sessionClient, clients())
	stop := rep.tr.alternateWhile()
	wall, err := p.run(sessionRestarts, func(i int) {
		sc := &sessionClient{lats: newWindowed()}
		cls[i] = sc
		rng := rand.New(rand.NewSource(cfg.seed*104729 + int64(i)))
		slots := make([]*slot, sessionSlots)
		for j := range slots {
			slots[j] = &slot{}
		}
		nextSpec, nextRounds := rng.Intn(len(pool)), rng.Intn(sessionMaxRounds)
		for n := 0; ; n++ {
			s := slots[n%len(slots)]
			shard := rng.Intn(shardCount)
			var op func(opSlot)
			if s.id == "" {
				spec := nextSpec % len(pool)
				nextSpec++
				op = func(slot opSlot) { createSession(p, rep.tr, sc, s, pool, spec, shard, slot) }
			} else {
				rounds := 1 + nextRounds%sessionMaxRounds
				nextRounds++
				op = func(slot opSlot) { stepSession(p, rep.tr, sc, s, rounds, shard, slot) }
			}
			if !p.do(op) {
				return
			}
		}
	})
	stop()
	endPhase(rep, p, c, wall)
	if err != nil {
		return err
	}

	all := newWindowed()
	var creates, restores, firsts, lasts []float64
	var verdicts []sessionVerdict
	var windows windowLats
	replayed, steps := 0, 0
	reused := reusedIDs(cls)
	for _, sc := range cls {
		rep.count("session_create", sc.create)
		rep.count("session_step", sc.step)
		rep.count("session_delete", sc.del)
		all.merge(sc.lats)
		creates = append(creates, sc.createLats...)
		restores = append(restores, sc.restores...)
		firsts = append(firsts, sc.firsts...)
		lasts = append(lasts, sc.lasts...)
		verdicts = append(verdicts, sc.verdicts...)
		windows.merge(sc.windows)
		replayed += sc.replayed
		steps += sc.steps
		for _, id := range sc.failedIDs {
			if reused[id] {
				rep.reusedIDFaults++
			}
		}
	}
	reportWindows(rep, p, all)
	rep.set("restore_p50_ms", median(restores))
	rep.set("session.create_ms", median(creates))
	rep.set("session.step_first_ms", median(firsts))
	rep.set("session.step_last_ms", median(lasts))
	rep.set("session.steps", float64(steps))
	rep.set("session.restores", float64(len(restores)))
	rep.set("session.replayed_rounds", float64(replayed))
	reportSnapshotCounters(rep)
	rep.set("heap_mb", heapMB())
	rep.note("sessions: %d clients x %d live sessions of %d samples, %d completed, %d restores over %d restarts; an in-process restart keeps this process's snapshot memo, which a daemon restart would drop",
		clients(), sessionSlots, samples, len(verdicts), len(restores), len(sessionRestarts))
	if len(verdicts) == 0 {
		rep.problem("sessions: no session completed, so no verdict was checked")
	}
	var clean, onReused []sessionVerdict
	for _, v := range verdicts {
		if reused[v.id] {
			onReused = append(onReused, v)
		} else {
			clean = append(clean, v)
		}
	}
	for _, pr := range checkVerdicts(pool, clean) {
		rep.problem("sessions: %s", pr)
	}
	for _, pr := range checkVerdicts(pool, onReused) {
		rep.problem("sessions: %s (its ID was handed out twice)", pr)
		rep.reusedIDFaults++
	}
	if len(reused) > 0 {
		rep.note("sessions: %d session ID(s) handed out twice after restarts; %d failed operation(s) and mismatched verdict(s) concern them",
			len(reused), rep.reusedIDFaults)
	}
	if cfg.trace {
		return tracedEnd(rep, windows)
	}
	return nil
}

// sessionCall performs one session request, recording its latency and,
// when traced, its span.
func sessionCall(p *loadPhase, tr *tracer, sc *sessionClient, slot opSlot, name, key string, req *http.Request) ([]byte, time.Duration, error) {
	traced := tr.recording()
	var id uint64
	if traced {
		id = tr.newID()
		if key != "" {
			defer tr.begin(key, id)()
		}
	}
	t0 := time.Now()
	_, body, lat, err := p.call(req)
	if traced {
		tr.add(span{ID: id, Req: id, Name: name, Start: ms(t0.Sub(tr.t0)), End: ms(t0.Add(lat).Sub(tr.t0)), Attr: key, Bytes: int64(len(body))})
	}
	sc.lats.add(slot, lat, err)
	sc.windows.add(tr, traced, slot, lat, err)
	return body, lat, err
}

// createSession opens a session for slot s from pool[spec].
func createSession(p *loadPhase, tr *tracer, sc *sessionClient, s *slot, pool []session.Spec, spec, shard int, at opSlot) {
	b, err := json.Marshal(pool[spec])
	var body []byte
	var lat time.Duration
	if err == nil {
		var req *http.Request
		req, err = http.NewRequest(http.MethodPost, p.shardURL(shard)+"/v1/sessions", bytes.NewReader(b))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			body, lat, err = sessionCall(p, tr, sc, at, "client.session_create", "", req)
		}
	}
	var st session.Status
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err == nil && st.ID == "" {
		err = fmt.Errorf("create: no session id in %.200s", body)
	}
	tally(&sc.create, err)
	if err != nil {
		id := failedCreateID(err)
		sc.failedIDs = append(sc.failedIDs, id)
		if id != "" {
			sc.minted = append(sc.minted, id)
		}
		return
	}
	sc.minted = append(sc.minted, st.ID)
	sc.createLats = append(sc.createLats, ms(lat))
	*s = slot{spec: spec, id: st.ID, epoch: at.epoch}
}

// stepSession advances slot s by one step; the step that completes the
// session records its verdict and deletes it.
func stepSession(p *loadPhase, tr *tracer, sc *sessionClient, s *slot, rounds, shard int, at opSlot) {
	s.seq++
	u := fmt.Sprintf("%s/v1/sessions/%s/step?rounds=%d&seq=%d", p.shardURL(shard), s.id, rounds, s.seq)
	req, err := http.NewRequest(http.MethodPost, u, nil)
	var body []byte
	var lat time.Duration
	if err == nil {
		body, lat, err = sessionCall(p, tr, sc, at, "client.session_step", session.Key(s.id), req)
	}
	var res session.StepResult
	if err == nil {
		err = json.Unmarshal(body, &res)
	}
	if err == nil && res.Done && res.Verdict == nil {
		err = fmt.Errorf("session %s done without a verdict", s.id)
	}
	tally(&sc.step, err)
	if err != nil {
		sc.failedIDs = append(sc.failedIDs, s.id)
		*s = slot{} // abandon the session; the slot opens a new one
		return
	}
	sc.steps++
	if s.epoch < at.epoch {
		sc.restores = append(sc.restores, ms(lat))
		sc.replayed += s.rounds
	}
	s.epoch = at.epoch
	s.rounds += rounds
	s.lats = append(s.lats, ms(lat))
	if !res.Done {
		return
	}
	sc.verdicts = append(sc.verdicts, sessionVerdict{spec: s.spec, id: s.id, verdict: *res.Verdict})
	tenth := int(math.Ceil(float64(len(s.lats)) / 10))
	sc.firsts = append(sc.firsts, s.lats[:tenth]...)
	sc.lasts = append(sc.lasts, s.lats[len(s.lats)-tenth:]...)

	req, err = http.NewRequest(http.MethodDelete, p.shardURL(shard)+"/v1/sessions/"+s.id, nil)
	if err == nil {
		_, _, err = sessionCall(p, tr, sc, at, "client.session_delete", session.Key(s.id), req)
	}
	tally(&sc.del, err)
	if err != nil {
		sc.failedIDs = append(sc.failedIDs, s.id)
	}
	*s = slot{}
}
