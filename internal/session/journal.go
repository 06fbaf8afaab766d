package session

import (
	"encoding/json"
	"errors"
	"fmt"
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

// StepRec is one journaled step: the (clamped) rounds requested and the
// client sequence number that requested them (0 = unsequenced). The
// step log is the whole session state — simulation is deterministic, so
// replaying the same rounds against a machine forked from the same Spec
// reconstructs the session byte-for-byte. No closure serialization:
// replay *is* the codec.
type StepRec struct {
	Seq    uint64 `json:"seq,omitempty"`
	Rounds int    `json:"rounds"`
}

// journalDoc is the JSON body stored under Key(id): everything needed
// to rebuild the session (Spec + step log), or a tombstone (Closed set)
// marking a deleted/reaped session so it can never be resurrected.
type journalDoc struct {
	ID     string    `json:"id"`
	Spec   Spec      `json:"spec"`
	Steps  []StepRec `json:"steps,omitempty"`
	Closed string    `json:"closed,omitempty"`
}

// journalLocked persists the session's current doc (caller holds s.mu).
// The write is synchronous — a step is only acknowledged once its
// journal record is durable, so an acknowledged step survives a crash —
// and then replicated to ring successors when clustered. Journal
// failures degrade (counted, logged by the store) rather than failing
// the step: the in-memory session stays correct, and a crash loses at
// most the unjournalled tail, exactly like a crash before the step.
func (s *Session) journalLocked() {
	if s.replaying {
		return
	}
	j := s.reg.opts.Journal
	if j == nil {
		return
	}
	b, err := json.Marshal(journalDoc{ID: s.ID, Spec: s.spec, Steps: s.stepLog})
	if err != nil {
		s.reg.journalErrors.Add(1)
		return
	}
	if err := j.Update(Key(s.ID), b); err != nil {
		s.reg.journalErrors.Add(1)
		return
	}
	if rep := s.reg.opts.Replicate; rep != nil {
		rep(Key(s.ID), b)
	}
}

// tombstone overwrites a session's journal doc with a closed marker:
// deleted and reaped sessions must stay dead across restarts and
// failovers. Shutdown is deliberately not tombstoned — a drained
// daemon's sessions are exactly the ones restore exists for.
func (r *Registry) tombstone(id, reason string) {
	j := r.opts.Journal
	if j == nil {
		return
	}
	b, err := json.Marshal(journalDoc{ID: id, Closed: reason})
	if err != nil {
		return
	}
	if err := j.Update(Key(id), b); err != nil {
		r.journalErrors.Add(1)
		return
	}
	if rep := r.opts.Replicate; rep != nil {
		rep(Key(id), b)
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
	var doc journalDoc
	return json.Unmarshal(body, &doc) == nil && doc.Closed == ""
}

// restore lazily re-creates a journaled session on first access after a
// restart or failover: fork a fresh machine from the journaled Spec,
// replay the step log in order, and the deterministic simulation lands
// on byte-identical state. Concurrent restores of the same ID collapse
// to one (the rest wait and adopt the result); distinct IDs restore in
// parallel.
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
	var doc journalDoc
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID != id || doc.Closed != "" {
		return nil, false
	}
	spec, err := doc.Spec.withDefaults()
	if err != nil {
		return nil, false
	}
	if err := r.admit(); err != nil {
		return nil, false
	}
	s, err := newSession(r, spec)
	if err != nil {
		return nil, false
	}
	s.replaying = true
	for _, rec := range doc.Steps {
		if _, err := s.StepSeq(rec.Rounds, rec.Seq); err != nil && !errors.Is(err, ErrStaleSeq) {
			return nil, false
		}
	}
	s.mu.Lock()
	s.replaying = false
	s.mu.Unlock()
	if err := r.insert(s, id); err != nil {
		return nil, false
	}
	r.created.Add(1)
	r.restored.Add(1)
	return s, true
}
