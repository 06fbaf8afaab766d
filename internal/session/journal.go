package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"timeprotection/internal/channel"
)

// Journal is the narrow durable-store surface the registry journals
// sessions through; *store.Store satisfies it. Session docs live under
// "sess-*" keys beside the artefact bodies and ride the store's
// crash-safety discipline (atomic replace, fsynced journal, recovery
// rollback).
type Journal interface {
	Get(key string) ([]byte, bool)
	Update(key string, body []byte) error
}

// Key returns the durable-store key a session journals under.
func Key(id string) string { return "sess-" + id }

// IsKey reports whether key is Key of a valid session ID.
func IsKey(key string) bool {
	id, ok := strings.CutPrefix(key, "sess-")
	return ok && validID(id) == nil
}

// IDPrefixForAddr derives a cluster-unique session ID prefix from a
// shard's self address, so IDs minted by different shards never
// collide: "127.0.0.1:9101" -> "s-127-0-0-1-9101". Single-node
// deployments keep the plain "s" prefix.
func IDPrefixForAddr(addr string) string {
	b := []byte("s-" + addr)
	for i := 2; i < len(b); i++ {
		c := b[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '-'
		}
	}
	return string(b)
}

// validID bounds session IDs to what the store can key and what the
// forwarded-create header may carry.
func validID(id string) error {
	if id == "" || len(id) > 100 {
		return fmt.Errorf("%w: invalid session id %q", ErrBadSpec, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("%w: invalid session id %q", ErrBadSpec, id)
		}
	}
	return nil
}

// journalDoc is the JSON body stored under Key(id): the session's
// position, or a tombstone (Closed set) marking a deleted/reaped session
// so it can never be resurrected. The position is constant-size however
// long the session runs: the Spec to fork a fresh machine from, the
// chunk count the attack has run (simulation is deterministic, so
// advancing a fresh fork to the same count lands on byte-identical
// state — no machine state is serialized), the step count Status
// reports, and the last sequenced step, whose re-run rebuilds the
// cached idempotent response and the stale-seq state. Every field is
// always written, so the doc only ever grows by the digits of its
// counters.
type journalDoc struct {
	ID     string   `json:"id"`
	Spec   Spec     `json:"spec"`
	Steps  uint64   `json:"steps"`
	Chunks int      `json:"chunks"`
	Last   lastStep `json:"last"`
	Closed string   `json:"closed,omitempty"`
}

// lastStep is a session's last sequenced step: its client sequence
// number, the (clamped) rounds it requested, and the chunk count it
// started from. The zero value means no step was sequenced yet.
type lastStep struct {
	Seq    uint64 `json:"seq"`
	Rounds int    `json:"rounds"`
	From   int    `json:"from"`
}

// errJournal wraps every reason decodeJournal rejects a doc.
var errJournal = errors.New("session: invalid journal doc")

// chunkCap is the chunk-iteration cap of the attack a normalized spec
// prepares — the most chunks a session of that spec can ever run.
func chunkCap(sp Spec) int {
	c, _ := channel.LookupSteppable(sp.Channel)
	return c.ChunkCap(sp.Samples)
}

// decodeJournal parses and checks a journal doc. Docs arrive from disk
// and from peers' replica PUTs, so nothing in one is trusted: the ID
// must be valid; a tombstone needs nothing more, any other doc a spec
// that normalizes (the returned doc carries the normalized spec). A
// position doc's chunk count must lie within the spec's chunk cap, and
// its last sequenced step, unless zero, must have rounds in
// 1..MaxStepRounds and a start chunk no later than the doc's position.
func decodeJournal(body []byte) (journalDoc, error) {
	doc, err := parseJournal(body)
	if err != nil {
		return journalDoc{}, fmt.Errorf("%w: %v", errJournal, err)
	}
	return doc, nil
}

func parseJournal(body []byte) (journalDoc, error) {
	var doc journalDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return journalDoc{}, err
	}
	if err := validID(doc.ID); err != nil {
		return journalDoc{}, err
	}
	if doc.Closed != "" {
		return journalDoc{ID: doc.ID, Closed: doc.Closed}, nil
	}
	spec, err := doc.Spec.withDefaults()
	if err != nil {
		return journalDoc{}, err
	}
	doc.Spec = spec
	l := doc.Last
	switch {
	case doc.Chunks < 0 || doc.Chunks > chunkCap(spec):
		return journalDoc{}, fmt.Errorf("chunks %d outside 0..%d", doc.Chunks, chunkCap(spec))
	case doc.Chunks > 0 && doc.Steps == 0:
		return journalDoc{}, fmt.Errorf("%d chunks run by no step", doc.Chunks)
	case l == (lastStep{}):
		return doc, nil
	case l.Seq == 0 || doc.Steps == 0:
		return journalDoc{}, fmt.Errorf("last step %+v without a seq or a step", l)
	case l.Rounds < 1 || l.Rounds > MaxStepRounds:
		return journalDoc{}, fmt.Errorf("last step rounds %d", l.Rounds)
	case l.From < 0 || l.From > doc.Chunks:
		return journalDoc{}, fmt.Errorf("last step from chunk %d, position %d", l.From, doc.Chunks)
	}
	return doc, nil
}

// journalLocked persists the session's current position (caller holds
// s.mu). The write is synchronous — a step is only acknowledged once
// its journal record is durable, so an acknowledged step survives a
// crash — and then replicated to ring successors when clustered.
// Journal failures degrade (counted, logged by the store) rather than
// failing the step: the in-memory session stays correct, and a crash
// loses at most the unjournalled tail, exactly like a crash before the
// step.
func (s *Session) journalLocked() {
	s.reg.writeJournal(journalDoc{
		ID: s.ID, Spec: s.spec, Steps: s.steps.Load(), Chunks: s.x.Chunks(), Last: s.last,
	})
}

// tombstone overwrites a session's journal doc with a closed marker:
// deleted and reaped sessions must stay dead across restarts and
// failovers. Shutdown is deliberately not tombstoned — a drained
// daemon's sessions are exactly the ones restore exists for.
func (r *Registry) tombstone(id, reason string) {
	r.writeJournal(journalDoc{ID: id, Closed: reason})
}

// writeJournal stores a doc under its session's key and replicates it.
func (r *Registry) writeJournal(doc journalDoc) {
	j := r.opts.Journal
	if j == nil {
		return
	}
	b, err := json.Marshal(doc)
	if err != nil {
		r.journalErrors.Add(1)
		return
	}
	if err := j.Update(Key(doc.ID), b); err != nil {
		r.journalErrors.Add(1)
		return
	}
	if rep := r.opts.Replicate; rep != nil {
		rep(Key(doc.ID), b)
	}
}

// journalLive reports whether the journal holds a restorable (not
// tombstoned) doc for this ID. Used to keep freshly minted IDs from
// colliding with journaled sessions of a previous run, and to let
// Delete tombstone a session that was never restored.
func (r *Registry) journalLive(id string) bool {
	j := r.opts.Journal
	if j == nil {
		return false
	}
	body, ok := j.Get(Key(id))
	if !ok {
		return false
	}
	doc, err := decodeJournal(body)
	return err == nil && doc.Closed == ""
}

// restore lazily re-creates a journaled session on first access after a
// restart or failover: fork a fresh machine from the journaled Spec and
// advance it to the journaled position, and the deterministic
// simulation lands on byte-identical state. Concurrent restores of the
// same ID collapse to one (the rest wait and adopt the result);
// distinct IDs restore in parallel.
func (r *Registry) restore(id string) (*Session, bool) {
	if r.opts.Journal == nil || validID(id) != nil {
		return nil, false
	}
	s, _, _ := r.restoring.Do(id, func() (*Session, error) {
		r.mu.Lock()
		s, live := r.sessions[id]
		shut := r.shut
		r.mu.Unlock()
		if live || shut {
			return s, nil
		}
		s, _ = r.doRestore(id)
		return s, nil
	})
	return s, s != nil
}

func (r *Registry) doRestore(id string) (*Session, bool) {
	body, ok := r.opts.Journal.Get(Key(id))
	if !ok {
		return nil, false
	}
	doc, err := decodeJournal(body)
	if err != nil || doc.ID != id || doc.Closed != "" {
		return nil, false
	}
	if err := r.admit(); err != nil {
		return nil, false
	}
	s, err := newSession(r, doc.Spec)
	if err != nil {
		return nil, false
	}
	if err := s.resume(doc); err != nil {
		return nil, false
	}
	if err := r.insert(s, id); err != nil {
		return nil, false
	}
	r.created.Add(1)
	r.restored.Add(1)
	return s, true
}

// resume moves a freshly forked session to a journaled position, in
// order: advance to the last sequenced step's start chunk, re-run that
// step unjournaled (rebuilding its cached response and the stale-seq
// state), advance to the journaled chunk count, settle the verdict if
// the attack is done, and count the journaled steps and samples into
// the registry as if they had just been applied.
func (s *Session) resume(doc journalDoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := doc.Last; l.Seq != 0 {
		if !s.x.AdvanceTo(l.From) {
			return fmt.Errorf("%w: cannot reach chunk %d", errJournal, l.From)
		}
		res, err := s.stepLocked(l.Rounds)
		if err != nil {
			return err
		}
		res.Verdict = s.settleLocked()
		s.last, s.lastResult = l, res
	}
	if !s.x.AdvanceTo(doc.Chunks) {
		return fmt.Errorf("%w: cannot reach chunk %d", errJournal, doc.Chunks)
	}
	s.settleLocked()
	total := s.x.Dataset().N()
	s.collected.Store(int64(total))
	s.count(doc.Steps, total)
	return nil
}
