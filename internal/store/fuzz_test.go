package store

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzBytesPerInputByte bounds what one journal byte may make Open
// allocate beyond twice a real journal's replay. The costliest input
// measured is a run of the shortest put records, each naming a new key
// of no known shape with no object file behind it: a record of at least
// 23 bytes ({"op":"put","key":"0"} and a newline) costs its decode, an
// index entry, a file lookup and a quarantine attempt, about 70 bytes
// per input byte. Blank lines cost about 25 (one line header each).
const fuzzBytesPerInputByte = 128

// openJournal opens a fresh store directory whose journal holds b.
func openJournal(tb testing.TB, b []byte) (st Stats, n uint64) {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), b, 0o644); err != nil {
		tb.Fatal(err)
	}
	var s *Store
	var err error
	n = allocated(func() { s, err = Open(dir, Options{}) })
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	st = s.Stats()
	s.Close()
	return st, n
}

// FuzzStoreOpen feeds arbitrary journal bytes to Open, which replays
// them before anything else reads the store: a journal torn by a crash,
// corrupted on disk or written by another build must degrade to fewer
// recovered entries, never to a panic or a failed Open. The property:
// no panic, no error, and Open allocates at most twice what replaying
// a real six-record journal allocates plus fuzzBytesPerInputByte per
// journal byte.
func FuzzStoreOpen(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	a, b := Key("a"), Key("b")
	for _, step := range []error{
		s.Put(a, []byte("aaa\n")),
		s.Put(b, []byte("bbb\n")),
		s.Update("sess-k0-1", []byte("one")),
		s.Update("sess-k0-1", []byte("two")),
		s.Put("snap-"+a, []byte("old machine")),
	} {
		if step != nil {
			f.Fatal(step)
		}
	}
	s.Get(a)
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add([]byte(`{"op":"put","key":"a"}` + "\n" + `{"op":"del","key":"a"}` + "\n" + `{"op":"access"`))
	f.Add([]byte{})
	// The fixed cost is that of replaying a real journal, which pays for
	// the JSON decoder's first use and a torn line's error as well.
	_, fixed := openJournal(f, journal)
	f.Fuzz(func(t *testing.T, b []byte) {
		st, n := openJournal(t, b)
		if limit := 2*fixed + fuzzBytesPerInputByte*uint64(len(b)); n > limit {
			t.Fatalf("opening a %d-byte journal allocated %d bytes, bound %d", len(b), n, limit)
		}
		if st.Recovered != 0 || st.Entries != 0 {
			t.Fatalf("a journal with no object files recovered %d entries", st.Recovered)
		}
	})
}
