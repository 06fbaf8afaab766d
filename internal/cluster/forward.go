package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"

	"timeprotection/internal/api"
)

// proxyMaxBody bounds a forwarded request body. Session bodies are tiny
// JSON documents; anything larger is garbage.
const proxyMaxBody = 1 << 20

// ForwardRequest proxies one client request to the shard that owns its
// key — the session-forwarding hop: /v1/sessions/* calls route to the
// session's sticky ring owner and the response streams back verbatim.
// The request is re-issued with the ForwardHeader loop guard (one hop
// maximum, and the owner's shedding exempts it); stream requests
// (".../stream") run on the client's own context with no timeout, since
// SSE lives as long as the subscriber.
//
// The error contract mirrors FetchEntry: a transport failure before any
// response counts as a failed hop and returns an error — the
// caller degrades to serving locally (lazy journal restore makes that
// meaningful). Once the peer's response status is relayed, the request
// is settled and ForwardRequest returns nil; a mid-stream peer death
// still counts as a failed hop so the client's retry routes to the
// successor, while a vanished client is charged to nobody.
func (c *Cluster) ForwardRequest(w http.ResponseWriter, r *http.Request, target string) error {
	pc := c.peers[target]
	if pc == nil {
		return errNotAPeer(target)
	}
	c.proxied.Add(1)
	pc.forwards.Add(1)

	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(io.LimitReader(r.Body, proxyMaxBody))
	}
	ctx := r.Context()
	if !strings.HasSuffix(r.URL.Path, "/stream") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.ForwardTimeout)
		defer cancel()
	}
	u := "http://" + target + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(ForwardHeader, c.self)
	for _, h := range []string{"Content-Type", "Accept", api.HeaderSessionID} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		c.proxyFails.Add(1)
		pc.forwardFails.Add(1)
		c.peerFailed(target, err)
		return err
	}
	defer resp.Body.Close()

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	c.peerUp(target)
	pc.forwardHits.Add(1)

	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// The client went away; nothing to relay to and no one
				// to blame.
				return nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			if r.Context().Err() == nil {
				// The peer died mid-body. The response is already
				// committed (the client sees a truncated stream and
				// retries), but the failed hop is counted so the retry
				// routes to the successor.
				c.proxyFails.Add(1)
				pc.forwardFails.Add(1)
				c.peerFailed(target, rerr)
			}
			return nil
		}
	}
}

type errNotAPeer string

func (e errNotAPeer) Error() string { return "cluster: " + string(e) + " is not a peer" }

// ReplicateSync pushes a body to the key's ring successors and waits
// for every acknowledgment — the session-journal variant of Replicate.
// Artefact bodies replicate write-behind because they are recomputable;
// a session journal is the session, so a step is only acknowledged to
// the client once its journal change is on the replicas that would
// adopt the session if this shard died. Targets and accounting match
// Replicate exactly.
func (c *Cluster) ReplicateSync(key string, body []byte) {
	if c.opts.Replicas <= 0 {
		return
	}
	sent := 0
	for _, m := range c.ring.Successors(key, c.ring.Len()) {
		if sent >= c.opts.Replicas {
			break
		}
		if m == c.self || !c.alive(m) {
			continue
		}
		sent++
		c.replQueued.Add(1)
		c.replPending.Add(1)
		c.repl.Add(1)
		c.replicateTo(m, key, body)
	}
}
