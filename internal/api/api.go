// Package api is the shared vocabulary of tpserved's HTTP surface: the
// response-header names and cache-source values that internal/service
// sets and internal/cluster reads back, and the structured JSON error
// envelope every v1 error response carries. It sits below both packages
// (service imports cluster), so the protocol constants live in exactly
// one place instead of being string literals scattered across handlers,
// the cluster fetch path, tests and smoke scripts.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Response headers.
const (
	// HeaderCache reports how a shard served an artefact body: one of
	// the Cache* values below.
	HeaderCache = "X-Cache"
	// HeaderOriginCache, present only on forwarded responses, reports
	// how the owning shard served the request the forward resolved to.
	HeaderOriginCache = "X-Cluster-Origin-Cache"
	// HeaderSessionID carries the pre-minted session ID on a forwarded
	// session create: the receiving shard minted the ID (its routing is
	// what makes the ring owner sticky), the owning shard registers the
	// session under it. Internal; clients neither set nor read it.
	HeaderSessionID = "X-TP-Session-ID"
)

// Cache-source values carried by HeaderCache / HeaderOriginCache.
const (
	CacheHit     = "hit"     // served from the in-memory cache
	CacheDisk    = "disk"    // served from the durable store
	CacheMiss    = "miss"    // computed by a driver run
	CacheForward = "forward" // served by the key's owning shard (peer read-through)
)

// ErrorCode is a stable, machine-readable error classification. Codes
// are part of the v1 API contract: clients branch on them, so existing
// codes never change meaning (new ones may be added).
type ErrorCode string

// The v1 error code set.
const (
	// CodeBadRequest: the request itself is malformed (unknown
	// artefact parameter values, bad JSON, invalid query parameters).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: the named artefact or session does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeQueueFull: the compute queue rejected the request (429
	// backpressure); retry later.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeOverloaded: the in-flight request cap shed the request (503).
	CodeOverloaded ErrorCode = "overloaded"
	// CodeTimeout: the per-request wait bound elapsed (the driver run
	// may still complete and populate the cache for a retry).
	CodeTimeout ErrorCode = "timeout"
	// CodeUnavailable: the serving component is shutting down or
	// otherwise cannot accept work.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal: the driver run failed.
	CodeInternal ErrorCode = "internal"
	// CodeSessionLimit: the session registry is at -max-sessions (429).
	CodeSessionLimit ErrorCode = "session_limit"
	// CodeSessionClosed: the session was deleted or reaped between
	// lookup and use (409).
	CodeSessionClosed ErrorCode = "session_closed"
	// CodeSubscriberLimit: the session already has its maximum number
	// of stream subscribers (429).
	CodeSubscriberLimit ErrorCode = "subscriber_limit"
	// CodeSeqConflict: the step's sequence number was already
	// superseded — an out-of-order retry that must not re-advance the
	// session (409).
	CodeSeqConflict ErrorCode = "seq_conflict"
)

// Error is the payload of the v1 error envelope:
//
//	{"error":{"code":"...","message":"...","artefact":"..."}}
//
// Artefact names the artefact job (or session ID) the error concerns,
// when there is one.
type Error struct {
	Code     ErrorCode `json:"code"`
	Message  string    `json:"message"`
	Artefact string    `json:"artefact,omitempty"`
}

func (e *Error) Error() string {
	if e.Artefact != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Artefact, e.Message, e.Code)
	}
	return fmt.Sprintf("%s (%s)", e.Message, e.Code)
}

// envelope is the wire form wrapping Error.
type envelope struct {
	Error *Error `json:"error"`
}

// WriteError emits the JSON error envelope with the given status.
func WriteError(w http.ResponseWriter, status int, e Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(envelope{Error: &e})
}

// DecodeError parses a v1 error envelope body. It returns false for
// bodies that are not envelopes (plain text from a non-v1 surface, or
// an envelope missing the error object).
func DecodeError(body []byte) (*Error, bool) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code == "" {
		return nil, false
	}
	return env.Error, true
}
