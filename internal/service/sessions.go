package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/session"
)

// The interactive session surface: POST /v1/sessions boots a private
// simulated machine with a prepared attack, POST .../step advances it
// under client control, GET .../stream watches it live over SSE, and
// DELETE tears it down. The registry (internal/session) owns limits
// and lifecycle; this file is only the HTTP shape.

// sessionFail maps registry/session errors onto envelope responses.
func (s *Server) sessionFail(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, session.ErrBadSpec):
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, id, "%v", err)
	case errors.Is(err, session.ErrLimit):
		s.fail(w, http.StatusTooManyRequests, api.CodeSessionLimit, id, "%v", err)
	case errors.Is(err, session.ErrClosed):
		s.fail(w, http.StatusConflict, api.CodeSessionClosed, id, "%v", err)
	case errors.Is(err, session.ErrSubscriberLimit):
		s.fail(w, http.StatusTooManyRequests, api.CodeSubscriberLimit, id, "%v", err)
	case errors.Is(err, session.ErrStaleSeq):
		s.fail(w, http.StatusConflict, api.CodeSeqConflict, id, "%v", err)
	case errors.Is(err, session.ErrRegistryClosed):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, api.CodeUnavailable, id, "%v", err)
	default:
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, id, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// sessionFor resolves {id} or answers the 404 envelope. A deleted or
// reaped session is no longer in the registry, so stepping or streaming
// it after DELETE is a plain not_found — the 409 session_closed code is
// reserved for the race where the session closes mid-operation. Get
// falls through to the journal, so a session this daemon has never
// held in memory (pre-restart, or adopted from a dead peer's replica)
// resolves here too: the registry restores it by deterministic
// simulation.
func (s *Server) sessionFor(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.opts.Sessions.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, api.CodeNotFound, id, "unknown session %q", id)
		return nil, false
	}
	return sess, true
}

// forwardSession proxies a per-session request to the shard that owns
// the session's ring key and reports whether the response was handled
// remotely. Sessions are sticky: the journal key hashes the session ID,
// so every step/stream/get/delete for one session lands on one owner
// (whose in-memory machine is the live truth), and journal replication
// places copies exactly on the successors that the ring elects when
// that owner dies. A forward failure marks the peer down and degrades
// to local handling — lazy journal restore makes the local path
// meaningful, which is precisely the failover the chaos drill proves.
func (s *Server) forwardSession(w http.ResponseWriter, r *http.Request, id string) bool {
	cl := s.opts.Cluster
	if cl == nil || isForwarded(r) {
		return false
	}
	target := cl.Route(session.Key(id))
	if target == cl.Self() {
		return false
	}
	if err := cl.ForwardRequest(w, r, target); err != nil {
		cl.Failover()
		return false
	}
	return true
}

// handleSessionCreate boots a session from a session.Spec body and
// answers 201 with the normalized Status document and a Location
// header. Creation is admission-controlled by the registry, not the
// request pool: a full registry answers 429 session_limit immediately.
//
// Clustered, the receiving shard mints the ID first and routes on it:
// the session's home is decided by the ring, not by which shard the
// client happened to dial. The spec is re-sent to the owner with the
// pre-minted ID in api.HeaderSessionID; if the owner is unreachable the
// shard creates locally under that same ID and lets journal
// replication catch the owner up.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec session.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad session spec: %v", err)
		return
	}
	var id string
	if isForwarded(r) {
		id = r.Header.Get(api.HeaderSessionID) // minted by the routing shard
	} else if cl := s.opts.Cluster; cl != nil {
		id = s.opts.Sessions.NewID()
		if target := cl.Route(session.Key(id)); target != cl.Self() {
			body, err := json.Marshal(spec)
			if err != nil {
				s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad session spec: %v", err)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.Header.Set(api.HeaderSessionID, id)
			r.Header.Set("Content-Type", "application/json")
			if err := cl.ForwardRequest(w, r, target); err == nil {
				return
			}
			cl.Failover()
			// Owner unreachable: create here under the minted ID — the
			// replicated journal lets the ring's next owner adopt it.
		}
	}
	sess, err := s.opts.Sessions.CreateWithID(id, spec)
	if err != nil {
		s.sessionFail(w, id, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	list := []session.Status{}
	for _, sess := range s.opts.Sessions.List() {
		list = append(list, sess.Status())
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if s.forwardSession(w, r, r.PathValue("id")) {
		return
	}
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// stepRequest is the POST .../step body; ?rounds= and ?seq= work too
// (the body wins when both are present). Pointer fields distinguish
// "absent" from "present and zero": rounds must be a positive round
// count when given at all, and seq 0 is reserved for unsequenced steps.
type stepRequest struct {
	Rounds *int    `json:"rounds"`
	Seq    *uint64 `json:"seq"`
}

func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	if s.forwardSession(w, r, r.PathValue("id")) {
		return
	}
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	rounds := 1
	if v := r.URL.Query().Get("rounds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > session.MaxStepRounds {
			s.fail(w, http.StatusBadRequest, api.CodeBadRequest, sess.ID,
				"bad rounds %q (want 1..%d)", v, session.MaxStepRounds)
			return
		}
		rounds = n
	}
	var seq uint64
	if v := r.URL.Query().Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, api.CodeBadRequest, sess.ID, "bad seq %q", v)
			return
		}
		seq = n
	}
	var req stepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	switch err := dec.Decode(&req); {
	case errors.Is(err, io.EOF): // no body: query/default rounds
	case err != nil:
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, sess.ID, "bad step request: %v", err)
		return
	default:
		if req.Rounds != nil {
			if *req.Rounds < 1 || *req.Rounds > session.MaxStepRounds {
				s.fail(w, http.StatusBadRequest, api.CodeBadRequest, sess.ID,
					"bad rounds %d (want 1..%d)", *req.Rounds, session.MaxStepRounds)
				return
			}
			rounds = *req.Rounds
		}
		if req.Seq != nil {
			seq = *req.Seq
		}
	}
	res, err := sess.StepSeq(rounds, seq)
	if err != nil {
		s.sessionFail(w, sess.ID, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSession(w, r, id) {
		return
	}
	if !s.opts.Sessions.Delete(id) {
		s.fail(w, http.StatusNotFound, api.CodeNotFound, id, "unknown session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeSSE emits one Server-Sent Event frame. Any value that fails to
// marshal is a programming error; the frame is skipped rather than
// corrupting the stream.
func writeSSE(w io.Writer, typ string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return nil
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, b)
	return err
}

// handleSessionStream is the SSE feed: a hello event with the current
// Status, then trace/mi/done events as the session is stepped (by
// whoever holds the step side — streaming alone never advances or
// keeps the session alive), comment heartbeats while idle, and a final
// closed event when the session ends. The subscriber buffer is bounded
// and lossy: a stalled consumer drops events (counted in /metricz and
// the status document) and never blocks the simulation.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	if s.forwardSession(w, r, r.PathValue("id")) {
		return
	}
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, sess.ID, "response writer cannot stream")
		return
	}
	sub, err := sess.Subscribe()
	if err != nil {
		s.sessionFail(w, sess.ID, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if writeSSE(w, "hello", sess.Status()) != nil {
		return
	}
	flusher.Flush()

	hb := time.NewTicker(s.opts.SessionHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev := <-sub.C:
			if writeSSE(w, ev.Type, ev.Data) != nil {
				return
			}
			flusher.Flush()
		case <-sub.Done:
			// Session over: drain what the buffer still holds (the
			// closed event is published before Done closes) and finish.
			for {
				select {
				case ev := <-sub.C:
					if writeSSE(w, ev.Type, ev.Data) != nil {
						return
					}
				default:
					flusher.Flush()
					return
				}
			}
		case <-hb.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
