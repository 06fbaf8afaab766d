package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, body []byte) {
	t.Helper()
	if err := s.Put(key, body); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	body := []byte("table2 haswell seed=42\n")
	mustPut(t, s, Key("a"), body)
	got, ok := s.Get(Key("a"))
	if !ok || string(got) != string(body) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(Key("absent")); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Re-putting the same key is a no-op, not an error.
	mustPut(t, s, Key("a"), body)
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("duplicate put created an entry: %+v", st)
	}
}

func TestInvalidKeys(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, key := range []string{"", ".", "..", "../escape", "a/b", strings.Repeat("x", 200), ".hidden"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
}

func TestReopenRecoversEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		mustPut(t, s, Key(fmt.Sprint(i)), []byte(fmt.Sprintf("body %d\n", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key("late"), []byte("x")); err != ErrClosed {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}

	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Recovered != 5 || st.Entries != 5 {
		t.Fatalf("recovered %+v, want 5 entries", st)
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(Key(fmt.Sprint(i)))
		if !ok || string(got) != fmt.Sprintf("body %d\n", i) {
			t.Errorf("entry %d after reopen: %q, %v", i, got, ok)
		}
	}
}

func TestCorruptEntryQuarantinedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := Key("victim")
	mustPut(t, s, key, []byte("precious bytes\n"))

	// Flip one byte in the object file.
	path := filepath.Join(dir, "objects", key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if body, ok := s.Get(key); ok {
		t.Fatalf("corrupt entry served: %q", body)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("stats after corrupt read = %+v", st)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir = %v, %v", q, err)
	}
	// The slot is recomputable: a fresh Put works and serves clean.
	mustPut(t, s, key, []byte("precious bytes\n"))
	if body, ok := s.Get(key); !ok || string(body) != "precious bytes\n" {
		t.Fatalf("re-put entry = %q, %v", body, ok)
	}
}

func TestTruncatedEntryQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := Key("t")
	mustPut(t, s, key, []byte("twelve bytes\n"))
	s.Close()

	if err := os.Truncate(filepath.Join(dir, "objects", key), 4); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Truncated != 1 || st.Quarantined != 1 || st.Recovered != 0 {
		t.Errorf("stats after truncated open = %+v", st)
	}
	if _, ok := s2.Get(key); ok {
		t.Error("truncated entry served")
	}
}

func TestMissingFileDroppedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := Key("gone")
	mustPut(t, s, key, []byte("here today\n"))
	s.Close()
	os.Remove(filepath.Join(dir, "objects", key))

	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Missing != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOrphanQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{}).Close()
	// An object file the journal does not vouch for (crash between
	// rename and journal append).
	orphan := Key("orphan")
	if err := os.WriteFile(filepath.Join(dir, "objects", orphan), []byte("untrusted"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Orphans != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := s.Get(orphan); ok {
		t.Error("orphan served without a checksum to verify it")
	}
}

// TestStaleKeysQuarantinedAtOpen: an object under a key this build
// never writes (an older build's "snap-" machine snapshot) is moved to
// quarantine/ at Open and not counted as recovered; an artefact and a
// session journal stay.
func TestStaleKeysQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	artefact, snap := Key("artefact"), "snap-"+Key("machine")
	mustPut(t, s, artefact, []byte("table\n"))
	mustPut(t, s, snap, []byte("machine state"))
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.Recovered != 1 || st.Entries != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 recovered entry and 1 quarantined", st)
	}
	objs, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Name() != artefact {
		t.Errorf("objects/ holds %v, want only the artefact", objs)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", snap)); err != nil {
		t.Errorf("stale object not in quarantine/: %v", err)
	}
	if _, ok := s2.Get(snap); ok {
		t.Error("stale object served")
	}
	sess := "sess-k0-1"
	if err := s2.Update(sess, []byte("journal")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if st := mustOpen(t, dir, Options{}).Stats(); st.Recovered != 2 || st.Quarantined != 0 {
		t.Errorf("reopen with an artefact and a session journal: stats = %+v, want 2 recovered", st)
	}
}

func TestTornJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, Key("a"), []byte("aaa\n"))
	mustPut(t, s, Key("b"), []byte("bbb\n"))
	s.Close()

	// A crash mid-append tears the journal tail.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","key":"cccccc","sha2`)
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.TornRecords != 1 || st.Recovered != 2 {
		t.Errorf("stats = %+v, want 1 torn record, 2 recovered", st)
	}
	if body, ok := s2.Get(Key("a")); !ok || string(body) != "aaa\n" {
		t.Errorf("entry a lost to torn tail: %q, %v", body, ok)
	}
	// Compaction rewrote the journal clean: a third open sees no tear.
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if st := s3.Stats(); st.TornRecords != 0 || st.Recovered != 2 {
		t.Errorf("post-compaction stats = %+v", st)
	}
}

func TestStagingLeftoversSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{}).Close()
	if err := os.WriteFile(filepath.Join(dir, "tmp", "k.1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{}).Close()
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(left) != 0 {
		t.Errorf("tmp not swept: %v, %v", left, err)
	}
}

func TestGCEvictsLRUAndOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := func(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("%d", i%10), 100)) }
	s := mustOpen(t, dir, Options{MaxBytes: 350})
	mustPut(t, s, Key("a"), body(1))
	mustPut(t, s, Key("b"), body(2))
	mustPut(t, s, Key("c"), body(3))
	// Touch a: LRU order is now b < c < a.
	if _, ok := s.Get(Key("a")); !ok {
		t.Fatal("a missing before GC")
	}
	mustPut(t, s, Key("d"), body(4)) // 400 bytes > 350: evict b
	if _, ok := s.Get(Key("b")); ok {
		t.Error("b survived GC despite being least recently used")
	}
	if _, ok := s.Get(Key("a")); !ok {
		t.Error("recently touched a was evicted")
	}
	if st := s.Stats(); st.GCEvictions != 1 || st.Bytes > 350 {
		t.Errorf("stats = %+v", st)
	}
	s.Close()

	// Reopen with a tighter cap: access order replayed from the journal
	// decides who dies — c was touched less recently than a and d.
	s2 := mustOpen(t, dir, Options{MaxBytes: 250})
	if _, ok := s2.Get(Key("c")); ok {
		t.Error("c survived the tightened cap despite oldest access")
	}
	got := 0
	for _, k := range []string{"a", "d"} {
		if _, ok := s2.Get(Key(k)); ok {
			got++
		}
	}
	if got != 2 {
		t.Errorf("only %d of the 2 most-recent entries survived the tightened cap", got)
	}
}

func TestOversizedSingleEntryKept(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 10})
	mustPut(t, s, Key("big"), []byte(strings.Repeat("x", 100)))
	if _, ok := s.Get(Key("big")); !ok {
		t.Error("sole oversized entry evicted — the cap can never serve anything that way")
	}
}

func TestKeyShape(t *testing.T) {
	if Key("x") != Key("x") || Key("x") == Key("y") || len(Key("x")) != 64 {
		t.Error("Key not a stable 64-hex content address")
	}
	if err := validKey(Key("anything")); err != nil {
		t.Errorf("content address rejected: %v", err)
	}
}
