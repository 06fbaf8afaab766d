package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/session"
)

func newSessionServer(t *testing.T, sopts session.Options, opts Options) (*Server, string) {
	t.Helper()
	reg := session.NewRegistry(sopts)
	t.Cleanup(reg.Close)
	opts.Sessions = reg
	s, ts := newTestServer(t, opts)
	return s, ts.URL
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func createSession(t *testing.T, base, spec string) session.Status {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/sessions", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d %s, want 201", resp.StatusCode, raw)
	}
	var st session.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad create body %s: %v", raw, err)
	}
	if want := "/v1/sessions/" + st.ID; resp.Header.Get("Location") != want {
		t.Errorf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}
	return st
}

// TestSessionAPILifecycle drives a session end to end over HTTP:
// create, step in rounds, verify the verdict arrives with done, delete,
// then observe not_found for every further operation.
func TestSessionAPILifecycle(t *testing.T) {
	s, base := newSessionServer(t, session.Options{}, Options{Parallel: 1})
	st := createSession(t, base, `{"channel":"l1d","samples":12,"seed":5,"trace":"off"}`)
	if st.Target != 12 || st.Collected != 0 || st.Done {
		t.Fatalf("fresh status = %+v", st)
	}
	if st.Spec.Scenario != "raw" || st.Spec.Platform != "haswell" {
		t.Errorf("spec not normalized: %+v", st.Spec)
	}

	var last session.StepResult
	for i := 0; !last.Done; i++ {
		if i > 100 {
			t.Fatal("session never finished")
		}
		resp, raw := postJSON(t, base+"/v1/sessions/"+st.ID+"/step", `{"rounds":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step = %d %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &last); err != nil {
			t.Fatal(err)
		}
		if last.Requested != 5 || last.Target != 12 {
			t.Fatalf("step result = %+v", last)
		}
	}
	if last.Verdict == nil || last.Total != 12 {
		t.Fatalf("final step = %+v, want verdict at total 12", last)
	}
	if !strings.Contains(last.Verdict.Summary, "M=") {
		t.Errorf("verdict summary = %q", last.Verdict.Summary)
	}

	// Status document echoes completion.
	resp, raw := get(t, base+"/v1/sessions/"+st.ID)
	if resp.StatusCode != 200 {
		t.Fatalf("get = %d", resp.StatusCode)
	}
	var cur session.Status
	if err := json.Unmarshal([]byte(raw), &cur); err != nil {
		t.Fatal(err)
	}
	if !cur.Done || cur.Verdict == nil || cur.Collected != 12 {
		t.Errorf("status = %+v, want done with verdict", cur)
	}

	// Listing includes it.
	_, lraw := get(t, base+"/v1/sessions")
	var list []session.Status
	if err := json.Unmarshal([]byte(lraw), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}

	// /metricz carries the session counters.
	m := s.Snapshot()
	if m.Sessions == nil || m.Sessions.Created != 1 || m.Sessions.Active != 1 {
		t.Errorf("metrics sessions = %+v", m.Sessions)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", dresp.StatusCode)
	}

	// Step after delete: the session is gone — 404 envelope.
	resp2, raw2 := postJSON(t, base+"/v1/sessions/"+st.ID+"/step", ``)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("step after delete = %d %s, want 404", resp2.StatusCode, raw2)
	}
	if e, ok := api.DecodeError(raw2); !ok || e.Code != api.CodeNotFound || e.Artefact != st.ID {
		t.Errorf("step-after-delete envelope = %+v", e)
	}
	if m := s.Snapshot(); m.Sessions.Active != 0 || m.Sessions.Closed != 1 {
		t.Errorf("post-delete sessions = %+v", m.Sessions)
	}
}

// TestSessionAPIErrors: every session-surface error is the JSON
// envelope with its documented code.
func TestSessionAPIErrors(t *testing.T) {
	_, base := newSessionServer(t, session.Options{MaxSessions: 1}, Options{Parallel: 1})

	cases := []struct {
		body string
		code api.ErrorCode
	}{
		{`{"channel":"l3"}`, api.CodeBadRequest},           // unknown channel
		{`{}`, api.CodeBadRequest},                         // missing channel
		{`{"channel":"l1d","nope":1}`, api.CodeBadRequest}, // unknown field
		{`{"channel":"l1d","samples":-3}`, api.CodeBadRequest},
		{`{"channel":"kernel","scenario":"protected","pad_micros":1000000.001}`, api.CodeBadRequest}, // above session.MaxPadMicros
	}
	for _, c := range cases {
		resp, raw := postJSON(t, base+"/v1/sessions", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", c.body, resp.StatusCode)
		}
		if e, ok := api.DecodeError(raw); !ok || e.Code != c.code {
			t.Errorf("POST %s envelope = %s", c.body, raw)
		}
	}

	st := createSession(t, base, `{"channel":"l1d","samples":8,"trace":"off"}`)

	// At the cap: session_limit with 429.
	resp, raw := postJSON(t, base+"/v1/sessions", `{"channel":"l1d","samples":8}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create = %d %s, want 429", resp.StatusCode, raw)
	}
	if e, ok := api.DecodeError(raw); !ok || e.Code != api.CodeSessionLimit {
		t.Errorf("over-cap envelope = %s", raw)
	}

	// Bad rounds, both forms.
	for _, u := range []string{
		"/v1/sessions/" + st.ID + "/step?rounds=x",
		"/v1/sessions/" + st.ID + "/step?rounds=0",
	} {
		resp, raw := postJSON(t, base+u, ``)
		if e, ok := api.DecodeError(raw); resp.StatusCode != 400 || !ok || e.Code != api.CodeBadRequest {
			t.Errorf("%s = %d %s, want 400 bad_request", u, resp.StatusCode, raw)
		}
	}
	resp, raw = postJSON(t, base+"/v1/sessions/"+st.ID+"/step", `{"rounds":-2}`)
	if e, ok := api.DecodeError(raw); resp.StatusCode != 400 || !ok || e.Code != api.CodeBadRequest {
		t.Errorf("negative rounds = %d %s", resp.StatusCode, raw)
	}

	// Unknown IDs: 404 envelopes on every verb.
	for _, probe := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { r, b := get(t, base+"/v1/sessions/s-999"); return r, []byte(b) },
		func() (*http.Response, []byte) { return postJSON(t, base+"/v1/sessions/s-999/step", ``) },
		func() (*http.Response, []byte) { r, b := get(t, base+"/v1/sessions/s-999/stream"); return r, []byte(b) },
	} {
		resp, raw := probe()
		if e, ok := api.DecodeError(raw); resp.StatusCode != 404 || !ok || e.Code != api.CodeNotFound {
			t.Errorf("unknown id = %d %s, want 404 not_found", resp.StatusCode, raw)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/s-999", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if e, ok := api.DecodeError(draw); dresp.StatusCode != 404 || !ok || e.Code != api.CodeNotFound {
		t.Errorf("delete unknown = %d %s", dresp.StatusCode, draw)
	}
}

// sseEvent is one parsed frame off the stream.
type sseEvent struct {
	typ  string
	data string
}

// readSSE parses frames until the body ends, sending each on the
// returned channel (closed at EOF).
func readSSE(body io.Reader) <-chan sseEvent {
	out := make(chan sseEvent, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.typ != "":
				out <- ev
				ev = sseEvent{}
			}
		}
	}()
	return out
}

// TestSessionStream: the SSE feed opens with a hello, carries MI
// updates and the done verdict while another client steps the session,
// and ends with a closed event when the session is deleted.
func TestSessionStream(t *testing.T) {
	_, base := newSessionServer(t, session.Options{MIWindow: 4},
		Options{Parallel: 1, SessionHeartbeat: 25 * time.Millisecond})
	st := createSession(t, base, `{"channel":"l1d","samples":12,"trace":"protocol"}`)

	resp, err := http.Get(base + "/v1/sessions/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := readSSE(resp.Body)
	first, ok := <-events
	if !ok || first.typ != "hello" {
		t.Fatalf("first frame = %+v, want hello", first)
	}
	var hello session.Status
	if err := json.Unmarshal([]byte(first.data), &hello); err != nil || hello.ID != st.ID {
		t.Fatalf("hello = %s (%v)", first.data, err)
	}

	// Step to completion, then delete; the stream must carry trace
	// events, at least one mi update, the done verdict and the closed
	// lifecycle event, in that causal order.
	var stepped session.StepResult
	for !stepped.Done {
		resp, raw := postJSON(t, base+"/v1/sessions/"+st.ID+"/step", `{"rounds":4}`)
		if resp.StatusCode != 200 {
			t.Fatalf("step = %d %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &stepped); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	seen := map[string]int{}
	var closedReason string
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case ev, ok := <-events:
			if !ok {
				done = true
				break
			}
			seen[ev.typ]++
			if ev.typ == "closed" {
				var c session.Closed
				json.Unmarshal([]byte(ev.data), &c)
				closedReason = c.Reason
			}
		case <-deadline:
			t.Fatalf("stream did not end after delete; seen %v", seen)
		}
	}
	if seen["trace"] == 0 {
		t.Error("no trace events on a protocol-trace stream")
	}
	if seen["mi"] == 0 {
		t.Error("no mi updates on the stream")
	}
	if seen["done"] != 1 {
		t.Errorf("done events = %d, want 1", seen["done"])
	}
	if seen["closed"] != 1 || closedReason != session.CloseDeleted {
		t.Errorf("closed = %d (reason %q), want 1 with reason deleted", seen["closed"], closedReason)
	}
}

// TestSessionStreamExemptFromShedding: with the in-flight cap fully
// occupied by a slow artefact request, the SSE stream still attaches —
// it is bounded by the session caps, not MaxInflight.
func TestSessionStreamExemptFromShedding(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		started <- struct{}{}
		<-release
		return "slow\n", nil
	}
	defer close(release)
	_, base := newSessionServer(t, session.Options{},
		Options{Parallel: 1, MaxInflight: 1, Runner: runner, Timeout: 10 * time.Second})
	st := createSession(t, base, `{"channel":"l1d","samples":8,"trace":"off"}`)

	go func() {
		resp, err := http.Get(base + "/v1/artefacts/table2")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started // the cap is now occupied

	// A normal request is shed...
	resp, body := get(t, base+"/v1/artefacts/table3")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap artefact = %d %s, want 503", resp.StatusCode, body)
	}
	// ...but the stream attaches and answers its hello.
	sresp, err := http.Get(base + "/v1/sessions/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != 200 {
		t.Fatalf("stream under load = %d, want 200 (exempt from shedding)", sresp.StatusCode)
	}
	if ev, ok := <-readSSE(sresp.Body); !ok || ev.typ != "hello" {
		t.Fatalf("stream under load first frame = %+v", ev)
	}
}

// TestArtefactListingFilters: ?platform= and ?paper= narrow the listing
// with stable ordering; global artefacts pass any platform filter.
func TestArtefactListingFilters(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	fetch := func(q string) []artefactInfo {
		t.Helper()
		resp, body := get(t, ts.URL+"/v1/artefacts"+q)
		if resp.StatusCode != 200 {
			t.Fatalf("list%s = %d", q, resp.StatusCode)
		}
		var list []artefactInfo
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatal(err)
		}
		return list
	}
	names := func(list []artefactInfo) []string {
		var out []string
		for _, a := range list {
			out = append(out, a.Name)
		}
		return out
	}

	all := fetch("")
	if len(all) != len(experiments.Registry()) {
		t.Fatalf("unfiltered listing has %d rows, registry %d", len(all), len(experiments.Registry()))
	}
	for i, a := range experiments.Registry() {
		if all[i].Name != a.Name || all[i].Paper != a.Paper {
			t.Errorf("row %d = %s/%s, want %s/%s (stable order, paper set)",
				i, all[i].Name, all[i].Paper, a.Name, a.Paper)
		}
	}

	sabre := fetch("?platform=sabre")
	for _, a := range sabre {
		if a.Name == "figure4" || a.Name == "figure6" || a.Name == "cat" || a.Name == "smt" {
			t.Errorf("x86-only %s in sabre listing", a.Name)
		}
	}
	found := map[string]bool{}
	for _, a := range sabre {
		found[a.Name] = true
	}
	if !found["table1"] {
		t.Error("global table1 missing from sabre listing")
	}
	if !found["table3"] {
		t.Error("table3 missing from sabre listing")
	}

	beyond := fetch("?paper=" + experiments.PaperBeyond)
	for _, a := range beyond {
		if a.Group != "extensions" {
			t.Errorf("%s (group %s) in beyond listing", a.Name, a.Group)
		}
	}
	if len(beyond) == 0 {
		t.Fatal("beyond listing empty")
	}

	ge := fetch("?paper=" + experiments.PaperGe2019)
	if len(ge)+len(beyond) != len(all) {
		t.Errorf("paper filters don't partition: %d + %d != %d", len(ge), len(beyond), len(all))
	}

	both := fetch("?platform=sabre&paper=" + experiments.PaperGe2019)
	for _, a := range both {
		if a.Paper != experiments.PaperGe2019 {
			t.Errorf("%s in combined filter with paper %s", a.Name, a.Paper)
		}
	}
	again := fetch("?platform=sabre&paper=" + experiments.PaperGe2019)
	if got, want := fmt.Sprint(names(again)), fmt.Sprint(names(both)); got != want {
		t.Errorf("unstable ordering: %v vs %v", got, want)
	}
}

// TestSessionsDisabledWithoutRegistry: a daemon without a session
// registry exposes no /v1/sessions surface at all.
func TestSessionsDisabledWithoutRegistry(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", `{"channel":"l1d"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sessions on batch-only daemon = %d, want 404", resp.StatusCode)
	}
	if _, body := get(t, ts.URL+"/metricz"); strings.Contains(body, `"sessions"`) {
		t.Error("batch-only /metricz carries a sessions section")
	}
}

// TestSessionPadsShareOneSnapshot: pad_micros is client input, and
// padding is applied to a fork of the booted machine, not captured with
// it. Sessions with 20 distinct pads hold one snapshot between them:
// /metricz's snapshot.registry entries do not move after the first.
func TestSessionPadsShareOneSnapshot(t *testing.T) {
	_, base := newSessionServer(t, session.Options{}, Options{Parallel: 1})
	registry := func() int {
		_, raw := get(t, base+"/metricz")
		var m Metrics
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("bad /metricz JSON: %v", err)
		}
		return m.Snapshot.Registry.Entries
	}
	var first int
	for i := 0; i < 20; i++ {
		createSession(t, base, fmt.Sprintf(`{"channel":"l1d","scenario":"protected","pad_micros":%v,"samples":4,"trace":"off"}`, 5+2.5*float64(i)))
		if i == 0 {
			first = registry()
		} else if got := registry(); got != first {
			t.Fatalf("session %d (pad %v) moved snapshot.registry entries from %d to %d", i, 5+2.5*float64(i), first, got)
		}
	}
}
