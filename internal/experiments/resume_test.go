package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/store"
)

func resumePlanEntries(t *testing.T) []PlanEntry {
	t.Helper()
	entries := Expand(PlanSpec{
		Platforms: []hw.Platform{hw.Haswell()},
		Base:      Config{Samples: 30, Seed: 42},
		Artefacts: []string{"table2", "table3", "figure3", "table5"},
	})
	if len(entries) < 4 {
		t.Fatalf("plan too small for a resume test: %d entries", len(entries))
	}
	return entries
}

// TestResumeByteIdentical is the tpbench -resume acceptance path: a run
// killed halfway leaves its completed entries in the durable store (no
// Close — puts are individually fsynced, so abandoning the handle is a
// faithful SIGKILL); the resumed full run serves those from disk, runs
// only the remainder, and assembles output byte-identical to an
// uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	entries := resumePlanEntries(t)

	var want strings.Builder
	if err := RunJobs(PlanJobs(entries, nil, false), 4, &want); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(entries) / 2
	if err := RunJobs(PlanJobs(entries[:half], st, false), 4, new(strings.Builder)); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	// Killed here: no st.Close(). Reopen as the resuming process would.

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Recovered; got != half {
		t.Fatalf("recovered %d entries after the kill, want %d", got, half)
	}
	var got strings.Builder
	if err := RunJobs(PlanJobs(entries, st2, true), 4, &got); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	stats := st2.Stats()
	if int(stats.Hits) != half {
		t.Errorf("resume served %d entries from the store, want %d", stats.Hits, half)
	}
	if int(stats.Misses) != len(entries)-half {
		t.Errorf("resume recomputed %d entries, want %d", stats.Misses, len(entries)-half)
	}
	if stats.Entries != len(entries) {
		t.Errorf("store holds %d entries after resume, want the full plan of %d", stats.Entries, len(entries))
	}
}

// TestResumeSurvivesCorruptEntry: a completed entry whose on-disk bytes
// rot between the kill and the resume is detected by checksum,
// quarantined, and recomputed — the resumed output is still
// byte-identical and the store heals.
func TestResumeSurvivesCorruptEntry(t *testing.T) {
	entries := resumePlanEntries(t)

	var want strings.Builder
	if err := RunJobs(PlanJobs(entries, nil, false), 4, &want); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunJobs(PlanJobs(entries, st, false), 4, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close, then flip one byte in one stored object.
	objs, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("objects dir: %v %v", objs, err)
	}
	path := filepath.Join(dir, "objects", objs[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var got strings.Builder
	if err := RunJobs(PlanJobs(entries, st2, true), 4, &got); err != nil {
		t.Fatalf("resumed run over corrupt store: %v", err)
	}
	if got.String() != want.String() {
		t.Fatal("resumed output over a corrupt entry differs from the clean run")
	}
	stats := st2.Stats()
	if stats.Corrupt != 1 || stats.Quarantined != 1 {
		t.Errorf("stats = corrupt %d quarantined %d, want 1 and 1", stats.Corrupt, stats.Quarantined)
	}
	// The recompute re-put the entry: the store is whole again.
	if stats.Entries != len(entries) {
		t.Errorf("store holds %d entries after healing, want %d", stats.Entries, len(entries))
	}
}

// TestCacheKeyStability pins the properties resume depends on: the key
// is a function of the entry identity alone (stable across processes),
// distinct per config, and shared with tpserved's content addressing.
func TestCacheKeyStability(t *testing.T) {
	e := PlanEntry{Artefact: mustArtefact(t, "table2"), Config: Config{Platform: hw.Haswell(), Samples: 30, Seed: 42}.Canonical()}
	key := e.CacheKey()
	if len(key) != 64 || strings.ToLower(key) != key {
		t.Fatalf("CacheKey %q is not lowercase sha256 hex", key)
	}
	if e.CacheKey() != key {
		t.Error("CacheKey not deterministic")
	}
	if store.Key(e.CanonicalKey()) != key {
		t.Error("CacheKey is not the store's content address of CanonicalKey")
	}
	e2 := e
	e2.Config.Seed = 43
	if e2.CacheKey() == key {
		t.Error("different seeds share a key")
	}
	chk := e
	chk.Check = true
	if chk.CacheKey() == key {
		t.Error("check entry shares a key with its artefact")
	}
}

func mustArtefact(t *testing.T, name string) Artefact {
	t.Helper()
	a, ok := LookupArtefact(name)
	if !ok {
		t.Fatalf("artefact %q not in registry", name)
	}
	return a
}
