package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"timeprotection/internal/api"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

// TestSessionStepValidation: the step surface rejects malformed rounds
// and sequence inputs with 400 envelopes before touching the session —
// a bad retry loop must never wedge or wildly advance a session.
func TestSessionStepValidation(t *testing.T) {
	_, base := newSessionServer(t, session.Options{}, Options{Parallel: 1})
	st := createSession(t, base, `{"channel":"l1d","samples":8,"seed":1,"trace":"off"}`)
	stepURL := base + "/v1/sessions/" + st.ID + "/step"

	bad := []struct {
		name, url, body string
	}{
		{"query rounds zero", stepURL + "?rounds=0", ""},
		{"query rounds negative", stepURL + "?rounds=-3", ""},
		{"query rounds over bound", stepURL + fmt.Sprintf("?rounds=%d", session.MaxStepRounds+1), ""},
		{"query rounds garbage", stepURL + "?rounds=ten", ""},
		{"query seq garbage", stepURL + "?seq=first", ""},
		{"query seq negative", stepURL + "?seq=-1", ""},
		{"body rounds zero", stepURL, `{"rounds":0}`},
		{"body rounds over bound", stepURL, fmt.Sprintf(`{"rounds":%d}`, session.MaxStepRounds+1)},
	}
	for _, c := range bad {
		resp, raw := postJSON(t, c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", c.name, resp.StatusCode, raw)
			continue
		}
		if e, ok := api.DecodeError(raw); !ok || e.Code != api.CodeBadRequest {
			t.Errorf("%s envelope = %s, want code %s", c.name, raw, api.CodeBadRequest)
		}
	}

	// None of the rejects advanced the session.
	var cur session.Status
	if _, raw := get(t, base+"/v1/sessions/"+st.ID); true {
		if err := json.Unmarshal([]byte(raw), &cur); err != nil {
			t.Fatalf("status body %s: %v", raw, err)
		}
	}
	if cur.Collected != 0 {
		t.Errorf("rejected steps advanced the session to %d samples", cur.Collected)
	}

	// The bound itself is accepted: MaxStepRounds is the last legal value.
	if resp, raw := postJSON(t, stepURL+fmt.Sprintf("?rounds=%d", session.MaxStepRounds), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("rounds=%d = %d %s, want 200", session.MaxStepRounds, resp.StatusCode, raw)
	}
}

// TestSessionStepSeqIdempotentOverHTTP: a client retrying a sequenced
// step over HTTP receives the byte-identical response without the
// session advancing twice, and a stale sequence is a 409 conflict, not
// a silent replay.
func TestSessionStepSeqIdempotentOverHTTP(t *testing.T) {
	_, base := newSessionServer(t, session.Options{}, Options{Parallel: 1})
	st := createSession(t, base, `{"channel":"l1d","samples":10,"seed":3,"trace":"off"}`)
	stepURL := base + "/v1/sessions/" + st.ID + "/step"

	resp1, raw1 := postJSON(t, stepURL+"?rounds=3&seq=1", "")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("seq 1 = %d %s", resp1.StatusCode, raw1)
	}
	var res1 session.StepResult
	if err := json.Unmarshal(raw1, &res1); err != nil {
		t.Fatal(err)
	}

	// Retry the same sequence — body seq exercises the other input path.
	resp2, raw2 := postJSON(t, stepURL, `{"rounds":3,"seq":1}`)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(raw2, raw1) {
		t.Fatalf("retried seq 1 = %d, body diverged:\n%s\nvs\n%s", resp2.StatusCode, raw2, raw1)
	}

	// The session advanced exactly once.
	_, sraw := get(t, base+"/v1/sessions/"+st.ID)
	var cur session.Status
	if err := json.Unmarshal([]byte(sraw), &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Collected != res1.Total {
		t.Fatalf("collected %d after retry, want %d (single advance)", cur.Collected, res1.Total)
	}

	// A fresh sequence advances; the now-stale one conflicts.
	if resp, raw := postJSON(t, stepURL+"?rounds=2&seq=2", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 2 = %d %s", resp.StatusCode, raw)
	}
	resp3, raw3 := postJSON(t, stepURL+"?rounds=2&seq=1", "")
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("stale seq = %d %s, want 409", resp3.StatusCode, raw3)
	}
	if e, ok := api.DecodeError(raw3); !ok || e.Code != api.CodeSeqConflict {
		t.Fatalf("stale seq envelope = %s, want code %s", raw3, api.CodeSeqConflict)
	}
}

// TestSessionRestartContinuityOverHTTP is the tentpole's single-node
// drill at the HTTP layer: a journaled session survives a full
// server+registry+store teardown, the retried in-flight sequence
// returns the byte-identical response, and the resumed run's verdict
// equals an uninterrupted one-shot run of the same spec.
func TestSessionRestartContinuityOverHTTP(t *testing.T) {
	dir := t.TempDir()
	open := func() (*store.Store, *session.Registry, *httptest.Server) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		reg := session.NewRegistry(session.Options{Journal: st})
		s := New(Options{Parallel: 1, Sessions: reg})
		return st, reg, httptest.NewServer(s.Handler())
	}

	st1, reg1, ts1 := open()
	created := createSession(t, ts1.URL, `{"channel":"l1d","samples":20,"seed":9,"trace":"off"}`)
	id := created.ID
	stepPath := "/v1/sessions/" + id + "/step"

	var lastBody []byte
	var seq uint64
	for _, rounds := range []int{1, 4, 2} {
		seq++
		resp, raw := postJSON(t, ts1.URL+stepPath+fmt.Sprintf("?rounds=%d&seq=%d", rounds, seq), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d = %d %s", seq, resp.StatusCode, raw)
		}
		lastBody = raw
	}

	// Kill the daemon mid-session: server, registry, and store all go.
	ts1.Close()
	reg1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Restart over the same directory; the client retries its last
	// unacknowledged sequence first, as a real client would.
	st2, reg2, ts2 := open()
	defer func() { ts2.Close(); reg2.Close(); st2.Close() }()
	resp, raw := postJSON(t, ts2.URL+stepPath+fmt.Sprintf("?rounds=2&seq=%d", seq), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart retry seq %d = %d %s", seq, resp.StatusCode, raw)
	}
	if !bytes.Equal(raw, lastBody) {
		t.Fatalf("post-restart retry diverged:\n%s\nvs\n%s", raw, lastBody)
	}
	if got := reg2.Stats().Restored; got != 1 {
		t.Fatalf("restored = %d, want 1", got)
	}

	// Resume to completion.
	var last session.StepResult
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("session never completed after restart")
		}
		seq++
		resp, raw := postJSON(t, ts2.URL+stepPath+fmt.Sprintf("?rounds=5&seq=%d", seq), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d = %d %s", seq, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &last); err != nil {
			t.Fatal(err)
		}
		if last.Done {
			break
		}
	}
	if last.Verdict == nil {
		t.Fatal("no verdict on the completing step")
	}

	// Byte-identity target: the uninterrupted in-process run.
	ref := session.NewRegistry(session.Options{})
	defer ref.Close()
	seed := int64(9)
	rs, err := ref.Create(session.Spec{Channel: "l1d", Samples: 20, Seed: &seed, Trace: session.TraceOff})
	if err != nil {
		t.Fatal(err)
	}
	for {
		res, err := rs.Step(1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done {
			if *last.Verdict != *res.Verdict {
				t.Fatalf("restart verdict %+v, one-shot %+v", last.Verdict, res.Verdict)
			}
			break
		}
	}
}
