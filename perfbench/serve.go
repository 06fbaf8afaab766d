package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
)

// Serve workload shape. Keys are (artefact, platform, seed) triples over
// the cheap paper artefacts. Key ranks follow a Zipf law, so nearly all
// requests repeat a key. Ranks are drawn quasi-randomly (a golden-ratio
// sequence through the Zipf distribution function, one fixed phase per
// client) rather than independently, and a rank's (artefact, platform)
// pair is fixed, so every seed gives a run of the same shape: the seed
// draws the artefact seed behind every rank and each client's shard
// choices.
const (
	serveSamples  = 30      // samples= on every request
	serveZipfS    = 2.5     // Zipf exponent of the key rank
	serveKeySpace = 1 << 16 // distinct key ranks
)

// servePairs are the cheap (artefact, platform) pairs keys are drawn
// from. Table 3, Table 6, Figure 7 and Table 8 take seconds per miss and
// belong to the regen workload.
var servePairs = func() [][2]string {
	var out [][2]string
	for _, name := range []string{"table1", "table2", "figure3", "figure4", "table4", "figure6", "table5", "table7"} {
		art, _ := experiments.LookupArtefact(name)
		for _, p := range platformNames {
			plat, _ := hw.PlatformByName(p)
			if !art.SupportsPlatform(plat) || (art.Global && p != "haswell") {
				continue
			}
			out = append(out, [2]string{name, p})
		}
	}
	return out
}()

// serveKey is one artefact request.
type serveKey struct {
	artefact string
	platform string
	seed     int64
}

func (k serveKey) String() string {
	return k.artefact + "/" + k.platform + "/" + strconv.FormatInt(k.seed, 10)
}

func (k serveKey) entry() experiments.PlanEntry {
	art, _ := experiments.LookupArtefact(k.artefact)
	plat, _ := hw.PlatformByName(k.platform)
	return experiments.PlanEntry{Artefact: art, Config: experiments.Config{Platform: plat, Samples: serveSamples, Seed: k.seed}.Canonical()}
}

// keyForRank maps a rank to its key: the rank fixes the (artefact,
// platform) pair, the workload seed and the rank fix the artefact seed.
func keyForRank(seed int64, rank int) serveKey {
	pair := servePairs[splitmix(uint64(rank))%uint64(len(servePairs))]
	h := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(rank))
	return serveKey{artefact: pair[0], platform: pair[1], seed: int64(h % 1000000)}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// zipfCDF is the distribution function of the key rank.
var zipfCDF = func() []float64 {
	cdf := make([]float64, serveKeySpace)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -serveZipfS)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}()

// rankSeq yields Zipf-distributed ranks from a golden-ratio sequence
// starting at phase u.
type rankSeq struct{ u float64 }

const goldenFrac = 0.6180339887498949

func (q *rankSeq) next() int {
	q.u += goldenFrac
	if q.u >= 1 {
		q.u--
	}
	r := sort.SearchFloat64s(zipfCDF, q.u)
	if r >= len(zipfCDF) {
		r = len(zipfCDF) - 1
	}
	return r
}

// bodyLedger checks every body served for a key against the first one
// and remembers, per key, the restart epoch it was last requested in.
type bodyLedger struct {
	mu        sync.Mutex
	sums      map[serveKey][32]byte
	how       map[serveKey]map[string]bool // dispositions seen
	lastEpoch map[serveKey]int
	problems  []string
}

func newBodyLedger() *bodyLedger {
	return &bodyLedger{
		sums:      map[serveKey][32]byte{},
		how:       map[serveKey]map[string]bool{},
		lastEpoch: map[serveKey]int{},
	}
}

// observe records one body and reports whether this was the first
// request for the key since the latest restart.
func (l *bodyLedger) observe(k serveKey, disposition string, body []byte, epoch int) (firstSinceRestart bool) {
	sum := sha256.Sum256(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.sums[k]; !ok {
		l.sums[k] = sum
		l.how[k] = map[string]bool{}
	} else if prev != sum {
		l.problems = append(l.problems, fmt.Sprintf("%s: %s body differs from an earlier one", k, disposition))
	}
	l.how[k][disposition] = true
	last, seen := l.lastEpoch[k]
	l.lastEpoch[k] = epoch
	return epoch > 0 && (!seen || last < epoch)
}

// verify compares every key's body with PlanEntry.Output computed in
// this process, outside the timed region.
func (l *bodyLedger) verify() []string {
	problems := append([]string(nil), l.problems...)
	for k, sum := range l.sums {
		out, err := k.entry().Output()
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: reference run: %v", k, err))
			continue
		}
		if sha256.Sum256([]byte(out)) != sum {
			problems = append(problems, fmt.Sprintf("%s: served body differs from PlanEntry.Output", k))
		}
	}
	return problems
}

// serveClient is one closed-loop client's record.
type serveClient struct {
	class    classCount
	lats     windowed
	byHow    map[string][]float64
	restores []float64
	windows  windowLats
}

// runServe is the serve workload.
func runServe(cfg runConfig, rep *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	c := &layerCounters{}
	d, base, err := setupDeployment(cfg, rep, c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	ledger := newBodyLedger()
	p := newLoadPhase(d, cfg)
	cls := make([]*serveClient, clients())
	stop := rep.tr.alternateWhile()
	wall, err := p.run([]float64{0.5}, func(i int) {
		sc := &serveClient{lats: newWindowed(), byHow: map[string][]float64{}}
		cls[i] = sc
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
		ranks := rankSeq{u: (float64(i) + 0.5) / float64(clients())}
		for {
			k := keyForRank(cfg.seed, ranks.next())
			shard := rng.Intn(shardCount)
			if !p.do(func(slot opSlot) { serveOne(p, rep.tr, ledger, sc, k, shard, slot) }) {
				return
			}
		}
	})
	stop()
	endPhase(rep, p, c, wall)
	if err != nil {
		return err
	}

	var restores []float64
	all := newWindowed()
	byHow := map[string][]float64{}
	var total classCount
	var windows windowLats
	for _, sc := range cls {
		all.merge(sc.lats)
		windows.merge(sc.windows)
		restores = append(restores, sc.restores...)
		for h, v := range sc.byHow {
			byHow[h] = append(byHow[h], v...)
		}
		total.Attempted += sc.class.Attempted
		total.Succeeded += sc.class.Succeeded
		total.Failed += sc.class.Failed
	}
	rep.count("artefact_get", total)
	reportWindows(rep, p, all)
	rep.set("restore_p50_ms", median(restores))
	measured := 0
	for _, h := range []struct{ how, name, count string }{
		{api.CacheHit, "service.hit_ms", "service.hits"},
		{api.CacheMiss, "service.miss_ms", "service.misses"},
		{api.CacheDisk, "service.disk_ms", "service.disk_hits"},
		{api.CacheForward, "service.forward_ms", "service.forwards"},
	} {
		rep.set(h.name, median(byHow[h.how]))
		rep.set(h.count, float64(len(byHow[h.how])))
		measured += len(byHow[h.how])
	}
	if measured > 0 {
		rep.set("service.hit_ratio", float64(len(byHow[api.CacheHit]))/float64(measured))
	}
	reportSnapshotCounters(rep)
	rep.set("heap_mb", heapMB())
	rep.note("serve: %d clients, %d distinct keys, %d keys first read back from a store after the restart; shards share this process's snapshot memo, which a restart keeps",
		clients(), len(ledger.sums), len(restores))

	for _, pr := range ledger.verify() {
		rep.problem("serve: %s", pr)
	}
	if cfg.trace {
		return tracedEnd(rep, windows)
	}
	return nil
}

// serveOne performs one artefact GET and records it. Dispositions and
// restores are recorded for measured requests only; a restore is the
// first request for a key after a restart when its entry shard serves it
// from its store.
func serveOne(p *loadPhase, tr *tracer, ledger *bodyLedger, sc *serveClient, k serveKey, shard int, slot opSlot) {
	u := fmt.Sprintf("%s/v1/artefacts/%s?platform=%s&samples=%d&seed=%d", p.shardURL(shard), k.artefact, k.platform, serveSamples, k.seed)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		tally(&sc.class, err)
		sc.lats.add(slot, 0, err)
		return
	}
	var id uint64
	var end func()
	traced := tr.recording()
	if traced {
		id = tr.newID()
		end = tr.begin(k.entry().CacheKey(), id)
	}
	t0 := time.Now()
	resp, body, lat, err := p.call(req)
	how := ""
	if err == nil {
		how = resp.Header.Get(api.HeaderCache)
		first := ledger.observe(k, how, body, slot.epoch)
		if slot.window >= 0 {
			if first && how == api.CacheDisk {
				sc.restores = append(sc.restores, ms(lat))
			}
			sc.byHow[how] = append(sc.byHow[how], ms(lat))
		}
	}
	if traced {
		end()
		tr.add(span{ID: id, Req: id, Name: "client.artefact_get", Start: ms(t0.Sub(tr.t0)), End: ms(t0.Add(lat).Sub(tr.t0)), Attr: how, Bytes: int64(len(body))})
	}
	tally(&sc.class, err)
	sc.lats.add(slot, lat, err)
	sc.windows.add(tr, traced, slot, lat, err)
}
