package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// Journal ops. The journal is the store's source of truth: an object
// file only counts as an entry once its put record is durably appended,
// and the record order carries the LRU order across restarts.
const (
	opPut    = "put"
	opAccess = "access"
	opDel    = "del"
)

// record is one journal.jsonl line.
type record struct {
	Op   string `json:"op"`
	Key  string `json:"key"`
	Sum  string `json:"sha256,omitempty"`
	Size int64  `json:"size,omitempty"`
}

// appendLocked appends one record to the journal (caller holds mu).
// sync selects an fsync after the append: put records are synced (they
// commit an entry), access and del records are not (losing them only
// degrades LRU order or resurfaces a Missing entry at next Open).
func (s *Store) appendLocked(r record, sync bool) error {
	if s.journal == nil {
		return ErrClosed
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := s.journal.Write(b); err != nil {
		return err
	}
	if sync {
		return s.journal.Sync()
	}
	return nil
}

// recover rebuilds the index from disk: sweep staging leftovers, replay
// the journal (tolerating a torn tail), verify every live entry's file,
// quarantine inconsistent or unjournalled objects, and compact the
// journal. Damage never fails recovery — it is counted, quarantined
// where a file exists, and the entry degrades to a recompute.
func (s *Store) recover() error {
	// A crash mid-Put leaves partial staging files; none are
	// committed, so all are garbage.
	if tmps, err := os.ReadDir(s.path("tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(filepath.Join(s.path("tmp"), t.Name()))
		}
	}

	prev, updated := s.replayJournal()

	// Verify each replayed entry's object file. Full checksums are
	// deferred to read time (hashing the whole store at boot would
	// stall restarts); a size check catches truncation now. Updated
	// keys are the exception: a crash between an Update's journal
	// append and its rename leaves the *previous* version's bytes on
	// disk, so they are byte-verified now, falling back to the record
	// the last update replaced.
	for key, el := range s.index {
		e := el.Value.(*entry)
		fi, err := os.Lstat(s.objectPath(key))
		switch {
		case !kept(key):
			s.quarantineLocked(key, "stale")
			s.dropLocked(key)
		case err != nil:
			s.stats.Missing++
			s.dropLocked(key)
			s.logf("recovery: journalled entry %s has no file", key)
		case updated[key]:
			data, rerr := os.ReadFile(s.objectPath(key))
			p, hasPrev := prev[key]
			switch {
			case rerr == nil && int64(len(data)) == e.size && bodySum(data) == e.sum:
				// The last update committed fully.
			case rerr == nil && hasPrev && int64(len(data)) == p.Size && bodySum(data) == p.Sum:
				s.bytes += p.Size - e.size
				e.sum, e.size = p.Sum, p.Size
				s.stats.Reverted++
				s.logf("recovery: entry %s rolled back to previous journalled version", key)
			default:
				s.stats.Corrupt++
				s.quarantineLocked(key, "corrupt")
				s.dropLocked(key)
			}
		case fi.Size() != e.size:
			s.stats.Truncated++
			s.quarantineLocked(key, "truncated")
			s.dropLocked(key)
		}
	}

	// Object files the journal does not vouch for (a crash between
	// rename and journal append) have no checksum to verify against:
	// quarantine rather than trust or delete them.
	if objs, err := os.ReadDir(s.path("objects")); err == nil {
		for _, o := range objs {
			if _, ok := s.index[o.Name()]; !ok {
				s.stats.Orphans++
				s.quarantineLocked(o.Name(), "orphaned")
			}
		}
	}

	s.stats.Recovered = len(s.index)
	if err := s.compactJournal(); err != nil {
		return err
	}
	return nil
}

// kept reports whether a key has a shape this build writes: a content
// address (IsKey) or a session journal ("sess-" prefix). Objects under
// any other key — the "snap-" machine snapshots of older builds — are
// never read again, so recover moves them to quarantine/ instead of
// keeping and counting them for good.
func kept(key string) bool {
	return IsKey(key) || strings.HasPrefix(key, "sess-")
}

// replayJournal applies journal records in order, returning per-key
// update history: prev maps each updated key to the record its latest
// put replaced, updated marks keys that saw more than one live put
// (i.e. Update traffic — recover byte-verifies those). Parsing stops at
// the first malformed line: the only crash-consistent damage is a torn
// tail, and anything after a mid-file corruption is untrustworthy —
// records beyond it are dropped (their object files then quarantine as
// orphans).
func (s *Store) replayJournal() (prev map[string]record, updated map[string]bool) {
	prev = make(map[string]record)
	updated = make(map[string]bool)
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		return prev, updated
	}
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil || validKey(r.Key) != nil {
			for _, rest := range lines[i:] {
				if len(bytes.TrimSpace(rest)) != 0 {
					s.stats.TornRecords++
				}
			}
			s.logf("recovery: journal torn at line %d (%d records dropped)", i+1, s.stats.TornRecords)
			return prev, updated
		}
		switch r.Op {
		case opPut:
			if el, ok := s.index[r.Key]; ok {
				e := el.Value.(*entry)
				if e.sum == r.Sum && e.size == r.Size {
					// Duplicate put (journal race no-op): refresh
					// recency only.
					s.ll.MoveToFront(el)
					continue
				}
				// A later put with a different checksum is an Update:
				// adopt it, remembering what it replaced.
				prev[r.Key] = record{Op: opPut, Key: r.Key, Sum: e.sum, Size: e.size}
				updated[r.Key] = true
				s.bytes += r.Size - e.size
				e.sum, e.size = r.Sum, r.Size
				s.ll.MoveToFront(el)
				continue
			}
			e := &entry{key: r.Key, sum: r.Sum, size: r.Size}
			s.index[r.Key] = s.ll.PushFront(e)
			s.bytes += e.size
		case opAccess:
			if el, ok := s.index[r.Key]; ok {
				s.ll.MoveToFront(el)
			}
		case opDel:
			s.dropLocked(r.Key)
			delete(prev, r.Key)
			delete(updated, r.Key)
		}
	}
	return prev, updated
}

// compactJournal atomically rewrites the journal as one put record per
// live entry in LRU order (least recent first, so replay restores the
// order), bounding journal growth from access records and dead puts.
// The rewrite uses the real disk ops, never the fault hooks.
func (s *Store) compactJournal() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if err := enc.Encode(record{Op: opPut, Key: e.key, Sum: e.sum, Size: e.size}); err != nil {
			return err
		}
	}
	tmp := filepath.Join(s.path("tmp"), "journal.compact")
	if err := WriteFileSync(tmp, buf.Bytes()); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.journalPath()); err != nil {
		return err
	}
	return syncDir(s.dir)
}
