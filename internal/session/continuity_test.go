package session

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"timeprotection/internal/store"
)

func openJournal(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// restart simulates a SIGKILL + reboot: the registry is abandoned
// un-drained (sessions are NOT closed — a real kill never runs the
// drain path), the store is closed and reopened, and a fresh registry
// is built over the recovered journal.
func restart(t *testing.T, r *Registry, st *store.Store, dir string) (*Registry, *store.Store) {
	t.Helper()
	// Stop the old reaper goroutine without the drain semantics
	// mattering: the journal already holds every acknowledged step, and
	// shutdown deliberately does not tombstone.
	r.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	st2 := openJournal(t, dir)
	t.Cleanup(func() { st2.Close() })
	r2 := NewRegistry(Options{Journal: st2})
	t.Cleanup(r2.Close)
	return r2, st2
}

// TestRestoreMatchesOneShot is the tentpole's determinism proof: a
// journaled session killed and restored at EVERY step boundary — a
// fresh registry and reopened store before each step — still produces
// byte-identical samples and an identical MI verdict to the
// uninterrupted one-shot run. Simulation is the codec: no machine state
// crosses the restart except the Spec and the journaled position.
func TestRestoreMatchesOneShot(t *testing.T) {
	sp := Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)}
	want := oneShot(t, sp)

	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})

	s, err := r.Create(sp)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	id := s.ID

	sizes := []int{1, 3, 1, 7, 2, 5, 100}
	var got []Sample
	var verdict *Verdict
	for i := 0; ; i++ {
		res, err := s.Step(sizes[i%len(sizes)])
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		got = append(got, res.Samples...)
		if res.Done {
			verdict = res.Verdict
			break
		}
		// Kill the daemon at this boundary and restore before the next
		// step.
		r, st = restart(t, r, st, dir)
		restored, ok := r.Get(id)
		if !ok {
			t.Fatalf("restore %q after kill at step %d failed", id, i)
		}
		if restored.ID != id {
			t.Fatalf("restored ID %q, want %q", restored.ID, id)
		}
		if int(restored.collected.Load()) != len(got) {
			t.Fatalf("restored session holds %d samples, stepped %d before the kill",
				restored.collected.Load(), len(got))
		}
		s = restored
	}

	if len(got) != want.N() {
		t.Fatalf("collected %d samples across restarts, one-shot %d", len(got), want.N())
	}
	for i, sm := range want.Since(0) {
		if got[i].Index != i || got[i].Symbol != sm.Input || got[i].Value != sm.Output {
			t.Fatalf("sample %d = %+v, one-shot (symbol=%d value=%v)", i, got[i], sm.Input, sm.Output)
		}
	}
	ref := oneShotVerdict(t, sp)
	if verdict == nil || verdict.Summary != ref.Summary || verdict.MBits != ref.MBits ||
		verdict.M0Bits != ref.M0Bits || verdict.N != ref.N || verdict.Leak != ref.Leak {
		t.Errorf("verdict across restarts = %+v, one-shot %+v", verdict, ref)
	}

	// The registry attributes every restore without breaking the
	// balance: created == active + closed + reaped.
	stats := r.Stats()
	if stats.Restored != 1 || stats.Created != uint64(stats.Active)+stats.Closed+stats.Reaped {
		t.Errorf("counters after restore: %+v", stats)
	}
	if stats.JournalErrors != 0 {
		t.Errorf("journal errors: %+v", stats)
	}
}

// oneShotVerdict computes the reference verdict through a throwaway
// un-journaled session (same code path as the daemon's one-shot
// equivalence, already proven by TestSessionMatchesOneShot).
func oneShotVerdict(t *testing.T, sp Spec) *Verdict {
	t.Helper()
	r := newTestRegistry(t, Options{})
	s, err := r.Create(sp)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for {
		res, err := s.Step(1000)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if res.Done {
			return res.Verdict
		}
	}
}

// TestStepSeqExactlyOnce: a retried step with the same sequence number
// returns the original result without advancing the simulation, an
// older sequence is rejected with ErrStaleSeq, and the guarantee holds
// across a kill/restore because the sequence rides the journal.
func TestStepSeqExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})

	s, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	id := s.ID

	if _, err := s.StepSeq(3, 1); err != nil {
		t.Fatalf("StepSeq(3, 1): %v", err)
	}
	res2, err := s.StepSeq(5, 2)
	if err != nil {
		t.Fatalf("StepSeq(5, 2): %v", err)
	}

	// Retry of the last applied sequence: cached result, no advance.
	retry, err := s.StepSeq(5, 2)
	if err != nil {
		t.Fatalf("retry seq 2: %v", err)
	}
	if retry != res2 {
		t.Fatalf("retry returned a new result (%+v), want the cached one (%+v)", retry, res2)
	}
	if got := s.Status().Collected; got != res2.Total {
		t.Fatalf("retry advanced the session: collected %d, want %d", got, res2.Total)
	}

	// An older sequence is a conflict, not a replay.
	if _, err := s.StepSeq(3, 1); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("seq 1 after 2 = %v, want ErrStaleSeq", err)
	}

	// Kill and restore: restore re-runs seq 2 from its start chunk, so
	// the retry contract survives the crash — same cached totals, same
	// conflict.
	r2, _ := restart(t, r, st, dir)
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatal("restore failed")
	}
	retry2, err := s2.StepSeq(5, 2)
	if err != nil {
		t.Fatalf("post-restore retry seq 2: %v", err)
	}
	if retry2.Total != res2.Total || retry2.Collected != res2.Collected {
		t.Fatalf("post-restore retry = %+v, want totals of %+v", retry2, res2)
	}
	if len(retry2.Samples) != len(res2.Samples) {
		t.Fatalf("post-restore retry returned %d samples, original %d", len(retry2.Samples), len(res2.Samples))
	}
	for i := range retry2.Samples {
		if retry2.Samples[i] != res2.Samples[i] {
			t.Fatalf("post-restore retry sample %d = %+v, original %+v", i, retry2.Samples[i], res2.Samples[i])
		}
	}
	if _, err := s2.StepSeq(1, 1); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("post-restore seq 1 = %v, want ErrStaleSeq", err)
	}
	// And the next fresh sequence advances exactly once.
	res3, err := s2.StepSeq(2, 3)
	if err != nil || res3.Total != res2.Total+res3.Collected {
		t.Fatalf("seq 3 after restore = %+v, %v", res3, err)
	}
}

// TestDeleteTombstonesAcrossRestart: a deleted session must stay dead —
// its journal doc becomes a tombstone, so a restart cannot resurrect
// it, and its ID is never re-minted into a collision.
func TestDeleteTombstonesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})

	s, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Step(3); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !r.Delete(s.ID) {
		t.Fatal("Delete failed")
	}

	r2, _ := restart(t, r, st, dir)
	if _, ok := r2.Get(s.ID); ok {
		t.Fatalf("deleted session %q resurrected after restart", s.ID)
	}
	if r2.Delete(s.ID) {
		t.Error("deleting a tombstoned session reported success")
	}
}

// TestDeleteJournalOnlySession: DELETE of a session that was journaled
// by a previous run but never restored must succeed (the tombstone is
// the deletion) — the client's handle stays valid across the restart.
func TestDeleteJournalOnlySession(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	id := s.ID

	r2, _ := restart(t, r, st, dir)
	if !r2.Delete(id) {
		t.Fatalf("Delete(%q) of journal-only session failed", id)
	}
	if _, ok := r2.Get(id); ok {
		t.Fatal("deleted journal-only session still restorable")
	}
	if got := r2.Stats().Restored; got != 0 {
		t.Errorf("deletion restored the session first: restored=%d", got)
	}
}

// TestMintSkipsJournaledIDs: a restarted daemon must not hand a new
// session an ID whose journal doc is still restorable — that would
// overwrite the old session's journal.
func TestMintSkipsJournaledIDs(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})
	old, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	r2, _ := restart(t, r, st, dir)
	fresh, err := r2.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(8)})
	if err != nil {
		t.Fatalf("Create after restart: %v", err)
	}
	if fresh.ID == old.ID {
		t.Fatalf("freshly minted ID %q collides with a journaled session", fresh.ID)
	}
	// The old session is still there, under its own ID, with its own
	// seed.
	back, ok := r2.Get(old.ID)
	if !ok {
		t.Fatalf("journaled session %q lost after minting around it", old.ID)
	}
	if *back.Spec().Seed != 7 {
		t.Errorf("restored spec seed = %d, want 7", *back.Spec().Seed)
	}
}

// TestConcurrentRestoreSingleflight: concurrent Gets of the same
// journaled ID collapse to ONE restore (one machine boot, restored
// counter of exactly 1) and all callers get the same session.
func TestConcurrentRestoreSingleflight(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	r := NewRegistry(Options{Journal: st})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Step(10); err != nil {
		t.Fatalf("Step: %v", err)
	}
	id := s.ID

	r2, _ := restart(t, r, st, dir)
	const callers = 8
	got := make([]*Session, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = r2.Get(id)
		}()
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if stats := r2.Stats(); stats.Restored != 1 || stats.Created != 1 {
		t.Errorf("singleflight restore counters: %+v", stats)
	}
}

// TestCloseRacesStepSubscribeDelete drives Registry.Close against
// in-flight Step, Subscribe, Get-restore and Delete calls under the
// race detector: no deadlock, no panic, and every session ends closed.
func TestCloseRacesStepSubscribeDelete(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	t.Cleanup(func() { st.Close() })
	r := NewRegistry(Options{Journal: st})

	const n = 6
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := r.Create(Spec{Channel: "l1d", Samples: 200, Seed: ptr(int64(i))})
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		ids[i] = s.ID
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		id := ids[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				s, ok := r.Get(id)
				if !ok {
					return
				}
				if _, err := s.Step(5); err != nil {
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, ok := r.Get(id)
			if !ok {
				return
			}
			sub, err := s.Subscribe()
			if err != nil {
				return
			}
			defer sub.Close()
			for {
				select {
				case <-sub.C:
				case <-sub.Done:
					return
				case <-time.After(2 * time.Second):
					t.Errorf("session %s: Done never closed after registry Close", id)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		r.Delete(ids[0])
	}()

	close(start)
	time.Sleep(10 * time.Millisecond) // let the steppers get going
	r.Close()
	wg.Wait()

	stats := r.Stats()
	if stats.Active != 0 {
		t.Errorf("sessions survived Close: %+v", stats)
	}
	if stats.Created != uint64(stats.Active)+stats.Closed+stats.Reaped {
		t.Errorf("counters unbalanced after racing Close: %+v", stats)
	}
	// The registry stays safely dead: no restore, no create.
	if _, ok := r.Get(ids[1]); ok {
		t.Error("Get restored a session on a closed registry")
	}
	if _, err := r.Create(Spec{Channel: "l1d"}); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Create after Close = %v, want ErrRegistryClosed", err)
	}
}

// TestReapTombstones: an idle-reaped session must not come back after a
// restart — reaping tombstones like deletion does.
func TestReapTombstones(t *testing.T) {
	dir := t.TempDir()
	st := openJournal(t, dir)
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := NewRegistry(Options{Journal: st, IdleTTL: time.Minute, ReapInterval: time.Hour, Clock: clock})

	s, err := r.Create(Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	r.ReapNow()
	if got := r.Stats().Reaped; got != 1 {
		t.Fatalf("reaped = %d, want 1", got)
	}

	r2, _ := restart(t, r, st, dir)
	if _, ok := r2.Get(s.ID); ok {
		t.Fatalf("reaped session %q resurrected after restart", s.ID)
	}
}

// TestIDPrefixForAddr pins the address-to-prefix mapping the clustered
// daemons mint with.
func TestIDPrefixForAddr(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:9101": "s-127-0-0-1-9101",
		"shard-a:80":     "s-shard-a-80",
		"[::1]:8080":     "s----1--8080",
	}
	for addr, want := range cases {
		if got := IDPrefixForAddr(addr); got != want {
			t.Errorf("IDPrefixForAddr(%q) = %q, want %q", addr, got, want)
		}
		r := newTestRegistry(t, Options{IDPrefix: IDPrefixForAddr(addr)})
		s, err := r.Create(Spec{Channel: "l1d", Samples: 10})
		if err != nil {
			t.Fatalf("Create with prefix %q: %v", want, err)
		}
		if !strings.HasPrefix(s.ID, want+"-") || !strings.HasSuffix(s.ID, "-1") {
			t.Errorf("minted ID %q, want %q-<epoch>-1", s.ID, want)
		}
	}
}

// stepOp is one step of a scripted session: its rounds and client
// sequence number (0 = unsequenced).
type stepOp struct {
	rounds int
	seq    uint64
}

// stepTwin runs ops against an unjournaled session of the same spec —
// the reference a restored session must equal — and returns it with
// the JSON of each sequenced step's response, by seq.
func stepTwin(t *testing.T, sp Spec, ops []stepOp) (*Session, map[uint64][]byte) {
	t.Helper()
	r := newTestRegistry(t, Options{})
	s, err := r.Create(sp)
	if err != nil {
		t.Fatalf("twin Create: %v", err)
	}
	return s, applyOps(t, s, ops)
}

func applyOps(t *testing.T, s *Session, ops []stepOp) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	for i, op := range ops {
		res, err := s.StepSeq(op.rounds, op.seq)
		if err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
		if op.seq != 0 {
			out[op.seq] = mustJSON(t, res)
		}
	}
	return out
}

// sameSession compares what a client can observe of two sessions: the
// Status counters and verdict, and the whole dataset.
func sameSession(t *testing.T, got, want *Session) {
	t.Helper()
	g, w := got.Status(), want.Status()
	if g.Collected != w.Collected || g.Steps != w.Steps || g.Done != w.Done {
		t.Fatalf("status collected/steps/done = %d/%d/%v, twin %d/%d/%v",
			g.Collected, g.Steps, g.Done, w.Collected, w.Steps, w.Done)
	}
	if !bytes.Equal(mustJSON(t, g.Verdict), mustJSON(t, w.Verdict)) {
		t.Fatalf("verdict %+v, twin %+v", g.Verdict, w.Verdict)
	}
	gs, ws := got.x.Dataset().Since(0), want.x.Dataset().Since(0)
	if len(gs) != len(ws) {
		t.Fatalf("dataset holds %d samples, twin %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("sample %d = %+v, twin %+v", i, gs[i], ws[i])
		}
	}
}

// TestMixedStepsAcrossRestore: sequenced and unsequenced steps, killed
// and restored from the position journal, leave a session equal to an
// unjournaled twin stepped the same way. Retrying the last sequenced
// step answers its pre-kill response byte for byte, an older seq is
// stale, and the session then runs on in step with its twin. The last
// case finishes the attack with unsequenced steps after the last
// sequenced one, so restore must settle the verdict itself.
func TestMixedStepsAcrossRestore(t *testing.T) {
	sp := Spec{Channel: "l1d", Samples: 24, Seed: ptr(7)}
	cases := []struct {
		name string
		ops  []stepOp
	}{
		{"seq1-unseq-unseq", []stepOp{{3, 1}, {1, 0}, {5, 0}}},
		{"seq1-seq2-unseq", []stepOp{{2, 1}, {4, 2}, {1, 0}}},
		{"unseq-only", []stepOp{{1, 0}, {6, 0}}},
		{"done-after-last-seq", []stepOp{{2, 1}, {1, 0}, {100, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin, twinRes := stepTwin(t, sp, tc.ops)

			dir := t.TempDir()
			st := openJournal(t, dir)
			r := NewRegistry(Options{Journal: st})
			s, err := r.Create(sp)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			preKill := applyOps(t, s, tc.ops)

			r, _ = restart(t, r, st, dir)
			got, ok := r.Get(s.ID)
			if !ok {
				t.Fatalf("restore of %q failed", s.ID)
			}
			sameSession(t, got, twin)
			if stats := r.Stats(); stats.Steps != uint64(len(tc.ops)) || stats.Samples != uint64(twin.Status().Collected) {
				t.Errorf("registry counted %d steps, %d samples after restore; twin %d, %d",
					stats.Steps, stats.Samples, len(tc.ops), twin.Status().Collected)
			}

			var last uint64
			for _, op := range tc.ops {
				last = max(last, op.seq)
			}
			if last != 0 {
				retry, err := got.StepSeq(1, last)
				if err != nil {
					t.Fatalf("retry seq %d: %v", last, err)
				}
				if b := mustJSON(t, retry); !bytes.Equal(b, preKill[last]) || !bytes.Equal(b, twinRes[last]) {
					t.Fatalf("retry seq %d answered\n%s\npre-kill\n%s", last, b, preKill[last])
				}
			}
			for seq := uint64(1); seq < last; seq++ {
				if _, err := got.StepSeq(1, seq); !errors.Is(err, ErrStaleSeq) {
					t.Fatalf("seq %d after %d = %v, want ErrStaleSeq", seq, last, err)
				}
			}
			sameSession(t, got, twin)

			// Both run on identically to completion.
			more := []stepOp{{2, last + 1}, {1, 0}, {1000, last + 2}}
			a, b := applyOps(t, got, more), applyOps(t, twin, more)
			for seq := range b {
				if !bytes.Equal(a[seq], b[seq]) {
					t.Fatalf("seq %d after restore answered\n%s\ntwin\n%s", seq, a[seq], b[seq])
				}
			}
			sameSession(t, got, twin)
			if !got.Status().Done {
				t.Fatal("session not done after a 1000-round step")
			}
		})
	}
}
