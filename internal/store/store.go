// Package store implements the durable tier under tpserved's result
// cache and tpbench's resume path: a content-addressed, crash-safe
// on-disk result store. Runs are deterministic, so a stored body never
// expires — the store's only jobs are to never lie (every read is
// checksum-verified) and to never lose legally-completed work to a
// crash (every write is atomic and journalled).
//
// Layout under the store directory:
//
//	objects/<key>   one file per entry; the body bytes, named by the
//	                content address of the *request* (sha256 hex of the
//	                canonical plan-entry identity)
//	journal.jsonl   append-only record of puts, accesses and deletes;
//	                replayed at Open to rebuild the index and LRU order
//	tmp/            atomic-write staging; swept at Open
//	quarantine/     corrupt, truncated or unjournalled files, and files
//	                under a key this build never writes, are moved
//	                here (never deleted) for post-mortem
//
// Write discipline mirrors a write-back cache flushing a dirty line,
// and there is one commit order for every write: the fsynced journal
// record lands first, then the body is staged in tmp/ and fsynced,
// renamed into objects/ (the atomic commit point), and the directory is
// fsynced. A crash at any point leaves either no trace (swept tmp
// file), a journalled entry whose file is gone (Missing at next Open),
// an updated entry whose file still holds the previous version
// (Reverted at next Open), or a fully committed entry — never a
// half-written entry the index trusts. Reads re-hash the body and
// quarantine on mismatch, so even bit rot degrades to a recompute,
// never to serving wrong bytes.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
)

// ErrClosed is returned by Put and Update after Close.
var ErrClosed = errors.New("store closed")

// Hooks intercepts the store's runtime disk mutations for fault
// injection (internal/fault's Disk implements matching methods). A nil
// field selects the real operation. Hooks are crash-faithful: a failing
// WriteFile may leave a partial tmp file (swept at next Open, like a
// real crash would) and a failing Rename may have completed the rename
// (the commit then journals a deletion, so the file is an orphan,
// quarantined at next Open).
// Recovery itself never goes through hooks — Open must stay reliable
// even while the injector rages.
type Hooks struct {
	// WriteFile replaces create+write+fsync of the staging file.
	WriteFile func(path string, data []byte) error
	// Rename replaces the atomic commit rename.
	Rename func(oldpath, newpath string) error
}

// Options configures a Store. The zero value is a plain unbounded
// store.
type Options struct {
	// MaxBytes caps the total object bytes; exceeding it evicts the
	// least-recently-accessed entries (journal access records carry the
	// LRU order across restarts). 0 = unbounded. A single entry larger
	// than the cap is kept — evicting it could never serve anything.
	MaxBytes int64
	// Hooks injects disk faults (tests); see Hooks.
	Hooks Hooks
	// Log, when non-nil, receives recovery and quarantine notices.
	Log *log.Logger
}

// Stats is a consistent snapshot of the store's counters: it is
// captured under the same mutex every counter mutates under, so
// invariants (hits+misses == lookups, etc.) hold exactly at any
// instant.
type Stats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes,omitempty"`

	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Updates   uint64 `json:"updates"`
	PutErrors uint64 `json:"put_errors"`

	// Corrupt counts read-time checksum or read failures; Truncated
	// counts open-time size mismatches; Orphans counts unjournalled
	// object files found at Open; Missing counts journalled entries
	// whose file was gone at Open. Every Corrupt/Truncated/Orphan file
	// that could be moved is also counted in Quarantined.
	Corrupt     uint64 `json:"corrupt"`
	Truncated   uint64 `json:"truncated"`
	Orphans     uint64 `json:"orphans"`
	Missing     uint64 `json:"missing"`
	Quarantined uint64 `json:"quarantined"`

	// Reverted counts updated entries rolled back at Open to the
	// previous journalled version (a crash landed between an Update's
	// journal append and its rename — the file still holds the prior
	// bytes, which remain perfectly good).
	Reverted uint64 `json:"reverted"`

	// TornRecords counts journal lines dropped at Open (a crash mid
	// journal append tears at most the tail).
	TornRecords uint64 `json:"torn_records"`
	GCEvictions uint64 `json:"gc_evictions"`
	// Recovered is how many entries the last Open replayed, verified
	// and kept.
	Recovered int `json:"recovered"`
}

// Store is a crash-safe content-addressed result store. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	journal *os.File
	ll      *list.List // front = most recently used
	index   map[string]*list.Element
	bytes   int64
	tmpSeq  uint64
	stats   Stats

	klMu   sync.Mutex
	klocks map[string]*keyLock
}

// keyLock serializes commits per key: a later commit's rename must
// never land before an earlier one's journal record, or the journal
// would vouch for bytes the object no longer holds.
type keyLock struct {
	mu   sync.Mutex
	refs int
}

func (s *Store) lockKey(key string) func() {
	s.klMu.Lock()
	kl := s.klocks[key]
	if kl == nil {
		kl = &keyLock{}
		s.klocks[key] = kl
	}
	kl.refs++
	s.klMu.Unlock()
	kl.mu.Lock()
	return func() {
		kl.mu.Unlock()
		s.klMu.Lock()
		kl.refs--
		if kl.refs == 0 {
			delete(s.klocks, key)
		}
		s.klMu.Unlock()
	}
}

type entry struct {
	key  string
	sum  string
	size int64
}

// Key hashes a canonical request description into the store's content
// address space (sha256 hex) — the same addressing the service cache
// uses, so the two tiers share keys.
func Key(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// IsKey reports whether key has the shape Key returns: a sha256 in
// lowercase hex.
func IsKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Open creates or reopens a store directory, sweeping staging
// leftovers, replaying the journal, verifying and quarantining
// inconsistent entries, and compacting the journal. A damaged store
// never fails Open — damage degrades to fewer recovered entries, each
// counted and (where a file exists) quarantined.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:    dir,
		opts:   opts,
		ll:     list.New(),
		index:  make(map[string]*list.Element),
		klocks: make(map[string]*keyLock),
	}
	for _, d := range []string{dir, s.path("objects"), s.path("tmp"), s.path("quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, fmt.Errorf("store: recover: %w", err)
	}
	j, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	s.journal = j
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) path(sub string) string       { return filepath.Join(s.dir, sub) }
func (s *Store) objectPath(key string) string { return filepath.Join(s.dir, "objects", key) }
func (s *Store) journalPath() string          { return filepath.Join(s.dir, "journal.jsonl") }

func (s *Store) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf("store: "+format, args...)
	}
}

func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// validKey rejects keys that cannot safely be file names. Content
// addresses from Key always pass.
func validKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("store: invalid key %q", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("store: invalid key %q", key)
		}
	}
	return nil
}

// Get returns the stored body for a key, verifying its checksum. A
// corrupt or unreadable entry is quarantined and reported as a miss —
// the caller recomputes; the store never fails a request over bad disk
// state and never returns unverified bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*entry)
	s.mu.Unlock()

	data, err := os.ReadFile(s.objectPath(key))

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, still := s.index[key]; !still {
		// Evicted by GC between the lookup and the read: an ordinary
		// miss, not corruption.
		s.stats.Misses++
		return nil, false
	}
	if err != nil || int64(len(data)) != e.size || bodySum(data) != e.sum {
		s.stats.Corrupt++
		s.stats.Misses++
		s.quarantineLocked(key, "corrupt")
		s.dropLocked(key)
		s.logf("quarantined corrupt entry %s (read err=%v)", key, err)
		return nil, false
	}
	s.stats.Hits++
	s.ll.MoveToFront(s.index[key])
	// Access records keep the LRU order across restarts. They are not
	// fsynced — losing the tail to a crash only degrades eviction
	// order, never correctness.
	s.appendLocked(record{Op: opAccess, Key: key}, false)
	return data, true
}

// Put durably stores a content-addressed body under a key. Bodies
// under such keys never legally change, so re-putting a present key is
// a no-op; a new key commits exactly as Update does. On error the entry
// is simply absent and the caller recomputes.
func (s *Store) Put(key string, body []byte) error { return s.commit(key, body, false) }

// Update durably replaces the body stored under a key. Put is for
// content-addressed entries whose bytes never legally change; Update is
// for the few keys that evolve in place — session journals ("sess-*"
// keys). An update whose body already matches the stored checksum only
// refreshes recency.
func (s *Store) Update(key string, body []byte) error { return s.commit(key, body, true) }

// commit is the store's one write path, serialized per key. The fsynced
// journal record (new checksum) lands *before* the staged write +
// rename, so the dangerous crash window is between the two steps: a new
// key then has a record but no file (Missing at next Open), and a
// replaced key's file still matches the *previous* record, which
// recover rolls the entry back to (see Reverted) — the key degrades to
// its last durable version, never to quarantine. A non-crash commit
// failure re-journals the previous version (or a deletion) immediately
// so journal and file agree again. replace selects Update's semantics
// over Put's no-op on a present key; Puts and Updates count each.
func (s *Store) commit(key string, body []byte, replace bool) error {
	if err := validKey(key); err != nil {
		return err
	}
	unlock := s.lockKey(key)
	defer unlock()

	sum := bodySum(body)
	size := int64(len(body))

	s.mu.Lock()
	if s.journal == nil {
		s.mu.Unlock()
		return ErrClosed
	}
	var prev *entry
	if el, ok := s.index[key]; ok {
		e := el.Value.(*entry)
		switch {
		case !replace:
			s.mu.Unlock()
			return nil
		case e.sum == sum:
			s.ll.MoveToFront(el)
			s.appendLocked(record{Op: opAccess, Key: key}, false)
			s.stats.Updates++
			s.mu.Unlock()
			return nil
		}
		prev = &entry{key: key, sum: e.sum, size: e.size}
	}
	if err := s.appendLocked(record{Op: opPut, Key: key, Sum: sum, Size: size}, true); err != nil {
		s.stats.PutErrors++
		s.mu.Unlock()
		return fmt.Errorf("store: journal %s: %w", key, err)
	}
	s.tmpSeq++
	tmp := filepath.Join(s.path("tmp"), fmt.Sprintf("%s.%d", key, s.tmpSeq))
	s.mu.Unlock()

	err := s.writeFile(tmp, body)
	if err == nil {
		err = s.rename(tmp, s.objectPath(key))
	}
	if err == nil {
		err = syncDir(filepath.Dir(s.objectPath(key)))
	}
	if err != nil {
		s.mu.Lock()
		s.stats.PutErrors++
		if s.journal != nil {
			if prev != nil {
				s.appendLocked(record{Op: opPut, Key: key, Sum: prev.sum, Size: prev.size}, true)
			} else {
				s.appendLocked(record{Op: opDel, Key: key}, false)
			}
		}
		s.mu.Unlock()
		s.logf("commit %s failed: %v", key, err)
		return fmt.Errorf("store: commit %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.sum, e.size = sum, size
		s.ll.MoveToFront(el)
	} else {
		s.index[key] = s.ll.PushFront(&entry{key: key, sum: sum, size: size})
		s.bytes += size
	}
	if replace {
		s.stats.Updates++
	} else {
		s.stats.Puts++
	}
	s.gcLocked()
	return nil
}

// writeFile stages data at path with create+write+fsync, through the
// write hook when set.
func (s *Store) writeFile(path string, data []byte) error {
	if h := s.opts.Hooks.WriteFile; h != nil {
		return h(path, data)
	}
	return WriteFileSync(path, data)
}

func (s *Store) rename(oldpath, newpath string) error {
	if h := s.opts.Hooks.Rename; h != nil {
		return h(oldpath, newpath)
	}
	return os.Rename(oldpath, newpath)
}

// WriteFileSync creates path, writes data and fsyncs before closing —
// the durable half of the temp-file/rename idiom. Exported for fault
// injectors that delegate their clean path to the real operation.
func WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// gcLocked evicts least-recently-accessed entries until the byte cap
// holds. Deletion records are journalled unsynced: losing one to a
// crash merely resurfaces the entry as Missing at next Open.
func (s *Store) gcLocked() {
	max := s.opts.MaxBytes
	if max <= 0 {
		return
	}
	for s.bytes > max && s.ll.Len() > 1 {
		e := s.ll.Back().Value.(*entry)
		os.Remove(s.objectPath(e.key))
		s.appendLocked(record{Op: opDel, Key: e.key}, false)
		s.dropLocked(e.key)
		s.stats.GCEvictions++
	}
}

// dropLocked removes an entry from the in-memory index.
func (s *Store) dropLocked(key string) {
	if el, ok := s.index[key]; ok {
		s.bytes -= el.Value.(*entry).size
		s.ll.Remove(el)
		delete(s.index, key)
	}
}

// quarantineLocked moves an object file into quarantine/ for
// post-mortem, journalling the deletion. Move failures (file already
// gone) still count the quarantine attempt's cause but not Quarantined.
func (s *Store) quarantineLocked(key, reason string) {
	src := s.objectPath(key)
	dst := filepath.Join(s.path("quarantine"), key)
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.path("quarantine"), fmt.Sprintf("%s.%d", key, n))
	}
	if err := os.Rename(src, dst); err == nil {
		s.stats.Quarantined++
		s.logf("quarantined %s entry %s -> %s", reason, key, dst)
	}
	s.appendLocked(record{Op: opDel, Key: key}, false)
}

// Stats snapshots every counter under the store mutex.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	st.MaxBytes = s.opts.MaxBytes
	return st
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Close fsyncs and closes the journal. Further Puts and Updates fail
// with ErrClosed; Gets keep answering from the recovered index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	syncErr := s.journal.Sync()
	closeErr := s.journal.Close()
	s.journal = nil
	return errors.Join(syncErr, closeErr)
}
