package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/memo"
	"timeprotection/internal/session"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/store"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /v1/artefacts", s.handleList)
	s.mux.HandleFunc("GET /v1/artefacts/{name}", s.handleArtefact)
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	if s.opts.Cluster != nil {
		// The internal cluster endpoints exist only on clustered
		// deployments (-peers): accepting a replica PUT means trusting
		// the sender's bytes for a key, which is the peer trust domain
		// a -peers operator opted into. A single daemon answers 404 —
		// no client can write into its store or read through its peer
		// path.
		s.mux.HandleFunc("GET "+cluster.EntryPath, s.handleClusterEntry)
		s.mux.HandleFunc("PUT "+cluster.ReplicaPathPrefix+"{key}", s.handleClusterReplica)
	}
	if s.opts.Sessions != nil {
		// The interactive attack-session surface exists only when the
		// daemon was given a registry (-max-sessions > 0): it hands out
		// live simulated machines, a resource a batch-only deployment
		// may not want to expose.
		s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
		s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
		s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
		s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleSessionStep)
		s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleSessionStream)
		s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	}
}

// isForwarded reports whether a request already took its peer hop: it
// carries the cluster loop-guard header, so it is served locally no
// matter what this shard's ring says (and is exempt from load shedding
// — the originating shard already counted it).
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardHeader) != ""
}

// fail emits the v1 JSON error envelope
// ({"error":{"code","message","artefact"}}) and counts the error.
// Every error response on the v1 surface goes through here (or the
// shedding path in middleware.go, which writes the same envelope) —
// plain-text http.Error bodies are not part of the API. artefact names
// the artefact job or session the error concerns ("" when none).
func (s *Server) fail(w http.ResponseWriter, status int, code api.ErrorCode, artefact, format string, args ...any) {
	s.errors.Add(1)
	api.WriteError(w, status, api.Error{
		Code: code, Message: fmt.Sprintf(format, args...), Artefact: artefact,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// Metrics is the /metricz document. Artefacts is captured atomically
// (one mutex guards both its increments and its snapshot), so its
// internal invariant hits+disk+misses+errors == requests holds exactly;
// Store is present only when a durable store is configured and is
// itself a single-lock-consistent snapshot.
type Metrics struct {
	Cache        CacheStats     `json:"cache"`
	Store        *store.Stats   `json:"store,omitempty"`
	Cluster      *cluster.Stats `json:"cluster,omitempty"`
	Artefacts    ArtefactStats  `json:"artefacts"`
	Singleflight struct {
		Shared uint64 `json:"shared"`
		Panics uint64 `json:"panics"`
	} `json:"singleflight"`
	Pool     PoolStats `json:"pool"`
	Requests struct {
		Total    uint64 `json:"total"`
		Errors   uint64 `json:"errors"`
		Shed     uint64 `json:"shed"`
		Inflight int64  `json:"inflight"`
	} `json:"requests"`
	DriverRuns   uint64         `json:"driver_runs"`
	RunnerPanics uint64         `json:"runner_panics"`
	Sessions     *session.Stats `json:"sessions,omitempty"`
	// Snapshot is the process-wide snapshot layer under the drivers
	// (captures, forks, run-memo hits) plus the bounded run memo's
	// retained results; every server in the process shares both.
	Snapshot struct {
		snapshot.Counters
		Memo     memo.Stats `json:"memo"`
		Registry memo.Stats `json:"registry"`
	} `json:"snapshot"`
}

// Snapshot collects the current counters (also used by tests).
func (s *Server) Snapshot() Metrics {
	var m Metrics
	m.Cache = s.cache.Stats()
	if st := s.opts.Store; st != nil {
		stats := st.Stats()
		m.Store = &stats
	}
	if cl := s.opts.Cluster; cl != nil {
		stats := cl.Stats()
		m.Cluster = &stats
	}
	m.Artefacts = s.disp.snapshot()
	m.Singleflight.Shared = s.flights.Shared()
	m.Singleflight.Panics = s.flights.Panics()
	m.Pool = s.pool.Stats()
	m.Requests.Total = s.requests.Load()
	m.Requests.Errors = s.errors.Load()
	m.Requests.Shed = s.shed.Load()
	m.Requests.Inflight = s.inflight.Load()
	m.DriverRuns = s.runs.Load()
	m.RunnerPanics = s.panics.Load()
	if reg := s.opts.Sessions; reg != nil {
		stats := reg.Stats()
		m.Sessions = &stats
	}
	m.Snapshot.Counters = snapshot.Stats()
	m.Snapshot.Memo = snapshot.MemoStats()
	m.Snapshot.Registry = snapshot.RegistryStats()
	return m
}

func (s *Server) handleMetricz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

// artefactInfo is one /v1/artefacts listing row.
type artefactInfo struct {
	Name      string   `json:"name"`
	Title     string   `json:"title"`
	Table     int      `json:"table,omitempty"`
	Figure    int      `json:"figure,omitempty"`
	Group     string   `json:"group,omitempty"`
	Paper     string   `json:"paper"`
	Global    bool     `json:"global,omitempty"`
	Platforms []string `json:"platforms"`
}

// handleList serves GET /v1/artefacts. ?platform= keeps artefacts that
// run on that platform (global artefacts are platform-independent and
// always pass); ?paper= keeps artefacts from that source paper. Both
// filters 400 on unknown values; results preserve the registry's
// stable paper-presentation order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var plat hw.Platform
	platName := q.Get("platform")
	if platName != "" {
		var ok bool
		plat, ok = hw.PlatformByName(platName)
		if !ok {
			s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "unknown platform %q (haswell|sabre)", platName)
			return
		}
	}
	paper := q.Get("paper")
	if paper != "" && !experiments.KnownPaper(paper) {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "unknown paper %q (known: %v)", paper, experiments.Papers())
		return
	}
	list := []artefactInfo{}
	for _, a := range experiments.Registry() {
		if platName != "" && !a.Global && !a.SupportsPlatform(plat) {
			continue
		}
		if paper != "" && a.Paper != paper {
			continue
		}
		info := artefactInfo{
			Name: a.Name, Title: a.Title, Table: a.Table, Figure: a.Figure,
			Group: a.Group, Paper: a.Paper, Global: a.Global,
		}
		switch {
		case a.Global:
			info.Platforms = []string{}
		case a.X86Only:
			info.Platforms = []string{"haswell"}
		default:
			info.Platforms = []string{"haswell", "sabre"}
		}
		list = append(list, info)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(list)
}

// parseConfig builds an experiments.Config from query-style parameters.
// The seed default of 42 lives here, in the parameter declaration —
// seed=0 is a valid, distinct seed (see Config.Canonical).
func parseConfig(get func(string) string) (experiments.Config, error) {
	cfg := experiments.Config{Seed: 42}
	intField := func(name string, dst *int) error {
		v := get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q", name, v)
		}
		*dst = n
		return nil
	}
	if err := intField("samples", &cfg.Samples); err != nil {
		return cfg, err
	}
	if err := intField("blocks", &cfg.SplashBlocks); err != nil {
		return cfg, err
	}
	if err := intField("slices", &cfg.Table8Slices); err != nil {
		return cfg, err
	}
	if v := get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q", v)
		}
		cfg.Seed = n
	}
	switch v := get("metrics"); v {
	case "", "false", "0":
	case "true", "1":
		cfg.Metrics = true
	default:
		return cfg, fmt.Errorf("bad metrics %q (true|false)", v)
	}
	return cfg, nil
}

func (s *Server) handleArtefact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	art, ok := experiments.LookupArtefact(name)
	if !ok {
		s.fail(w, http.StatusNotFound, api.CodeNotFound, name, "unknown artefact %q (known: %v)", name, experiments.ArtefactNames())
		return
	}
	q := r.URL.Query()
	cfg, err := parseConfig(q.Get)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, name, "%v", err)
		return
	}
	platName := q.Get("platform")
	if platName == "" {
		platName = "haswell"
	}
	plat, ok := hw.PlatformByName(platName)
	if !ok {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, name, "unknown platform %q (haswell|sabre)", platName)
		return
	}
	if !art.SupportsPlatform(plat) {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, name, "artefact %q is x86-only, not available on %q", name, platName)
		return
	}
	cfg.Platform = plat
	entry := experiments.PlanEntry{Artefact: art, Config: cfg.Canonical()}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	body, src, origin, err := s.result(ctx, entry, false, isForwarded(r))
	if err != nil {
		setRetryAfter(w, err)
		s.fail(w, httpStatusFor(err), codeFor(err), entry.JobName(), "%s: %v", entry.JobName(), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(api.HeaderCache, src) // hit | disk | miss | forward
	if origin != "" {
		// How the owning shard served the forwarded request.
		w.Header().Set(api.HeaderOriginCache, origin)
	}
	w.Write(body)
}

// handleClusterEntry is the peer read-through endpoint: the forwarding
// shard encodes a plan entry as query parameters (cluster.EntryQuery)
// and this shard answers through its local cache/store/compute path.
// The response is always served locally — this is by definition the
// second hop, so it never forwards again even if this shard's ring
// disagrees about the owner.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	s.opts.Cluster.NoteForwardReceived() // registered only when clustering is on
	q := r.URL.Query()
	cfg, err := parseConfig(q.Get)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "%v", err)
		return
	}
	check := q.Get("check") == "1"
	var art experiments.Artefact
	if !check {
		var ok bool
		art, ok = experiments.LookupArtefact(q.Get("artefact"))
		if !ok {
			s.fail(w, http.StatusNotFound, api.CodeNotFound, q.Get("artefact"), "unknown artefact %q", q.Get("artefact"))
			return
		}
	}
	plat, ok := hw.PlatformByName(q.Get("platform"))
	if !ok {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, art.Name, "unknown platform %q", q.Get("platform"))
		return
	}
	if !check && !art.SupportsPlatform(plat) {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, art.Name, "artefact %q not available on %q", art.Name, plat.Name)
		return
	}
	cfg.Platform = plat
	entry := experiments.PlanEntry{Artefact: art, Check: check, Config: cfg.Canonical()}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	body, src, _, err := s.result(ctx, entry, false, true)
	if err != nil {
		if errors.Is(err, experiments.ErrCheckFailed) {
			// A failed check is a correct, deterministic verdict, not a
			// fault: ship the rendered verdict table under 422 with the
			// marker header so the forwarding shard adopts
			// (body, ErrCheckFailed) — exactly what a local run yields —
			// instead of counting a failed hop and recomputing the
			// checks.
			s.errors.Add(1)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Header().Set(api.HeaderCache, src)
			w.Header().Set(cluster.CheckFailedHeader, "1")
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write(body)
			return
		}
		setRetryAfter(w, err)
		s.fail(w, httpStatusFor(err), codeFor(err), entry.JobName(), "%s: %v", entry.JobName(), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(api.HeaderCache, src) // the forwarding shard reports it as origin
	w.Write(body)
}

// handleClusterReplica accepts an owner's write-behind replication PUT:
// the computed body lands in this shard's durable store (or, without a
// store, its memory cache) so the entry survives the owner's death and
// the ring successor serves it as X-Cache: disk after failover.
// Accepting a body for a key is trusting the sender: the store's
// checksums verify disk integrity, not that the bytes match the key.
// That trust is the documented -peers trade-off, which is why this
// endpoint is registered only on clustered deployments — a single
// daemon exposes no write surface at all. Only the two key shapes
// replication sends are accepted — artefact content keys (store.Key)
// and session journal keys (session.Key) — so a peer can write nothing
// else into this shard's store.
func (s *Server) handleClusterReplica(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.IsKey(key) && !session.IsKey(key) {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "replica key %q is neither an artefact nor a session journal key", key)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "replica body: %v", err)
		return
	}
	if st := s.opts.Store; st != nil {
		// Update, not Put: session journals replicate repeatedly under
		// one key, and Update's journal-first commit keeps the previous
		// version recoverable if a crash lands mid-replace.
		if err := st.Update(key, body); err != nil {
			s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "replica put: %v", err)
			return
		}
	} else {
		s.cache.Put(key, body)
	}
	if cl := s.opts.Cluster; cl != nil {
		cl.NoteReplicaReceived()
	}
	w.WriteHeader(http.StatusNoContent)
}

// RunRequest is the POST /v1/runs body: a JSON rendering of
// experiments.PlanSpec plus the shared config knobs.
type RunRequest struct {
	Platforms  []string `json:"platforms"` // default ["haswell","sabre"]
	Artefacts  []string `json:"artefacts"` // registry names
	All        bool     `json:"all"`
	Table      int      `json:"table"`
	Figure     int      `json:"figure"`
	Ablations  bool     `json:"ablations"`
	Extensions bool     `json:"extensions"`
	Check      bool     `json:"check"`

	Samples int    `json:"samples"`
	Seed    *int64 `json:"seed"` // nil = 42; 0 is a valid seed
	Blocks  int    `json:"blocks"`
	Slices  int    `json:"slices"`
	Metrics bool   `json:"metrics"`
}

// maxBodyBytes caps a JSON request body (a run request or a session
// spec); a larger body is a 400 before anything runs.
const maxBodyBytes = 1 << 20

// decodeBody decodes exactly one JSON value of at most maxBodyBytes
// into v, rejecting unknown fields and anything after the value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		if err == nil {
			err = errors.New("more than one JSON value")
		}
		return fmt.Errorf("after the request: %w", err)
	}
	return nil
}

// plan validates the request and expands it into its plan entries. A
// platform may be named once, so a valid request never expands past the
// full plan for both platforms: Expand lists each artefact at most once
// per platform.
func (req RunRequest) plan() ([]experiments.PlanEntry, error) {
	if err := experiments.ValidateArtefactNames(req.Artefacts); err != nil {
		return nil, err
	}
	platNames := req.Platforms
	if len(platNames) == 0 {
		platNames = []string{"haswell", "sabre"}
	}
	var plats []hw.Platform
	for _, n := range platNames {
		p, ok := hw.PlatformByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown platform %q (haswell|sabre)", n)
		}
		for _, q := range plats {
			if q.Name == p.Name {
				return nil, fmt.Errorf("platform %q named twice", n)
			}
		}
		plats = append(plats, p)
	}
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	base := experiments.Config{
		Samples: req.Samples, SplashBlocks: req.Blocks, Seed: seed,
		Table8Slices: req.Slices, Metrics: req.Metrics,
	}.Canonical()
	entries := experiments.Expand(experiments.PlanSpec{
		Platforms:  plats,
		Base:       base,
		All:        req.All,
		Table:      req.Table,
		Figure:     req.Figure,
		Artefacts:  req.Artefacts,
		Ablations:  req.Ablations,
		Extensions: req.Extensions,
		Check:      req.Check,
	})
	if len(entries) == 0 {
		return nil, errors.New("run request selects no artefacts")
	}
	return entries, nil
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "bad run request: %v", err)
		return
	}
	entries, err := req.plan()
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "", "%v", err)
		return
	}

	// Results stream in plan order via chunked transfer as they
	// complete: RunJobs buffers each job and emits in slice order, and
	// the flushing writer pushes every completed artefact to the client
	// immediately. Batch entries use blocking admission — the batch
	// itself was already accepted.
	//
	// Timeout semantics: each entry gets its own s.opts.Timeout,
	// derived from the request context when its job starts — the budget
	// covers queue wait plus run for that entry alone. A single shared
	// deadline over the batch would 504 a long plan mid-stream even
	// though every entry succeeds individually; client disconnect still
	// cancels all entries via r.Context().
	jobs := make([]experiments.Job, len(entries))
	forwarded := isForwarded(r)
	for i, e := range entries {
		e := e
		jobs[i] = experiments.Job{Name: e.JobName(), Run: func() (string, error) {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
			defer cancel()
			body, _, _, err := s.result(ctx, e, true, forwarded)
			return string(body), err
		}}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fw := &flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	if err := experiments.RunJobs(jobs, s.opts.Parallel, fw); err != nil {
		// Headers are gone; append the error to the stream (a failed
		// check's verdict table has already been emitted above it).
		s.errors.Add(1)
		fmt.Fprintf(fw, "tpserved: %v\n", err)
	}
}

// flushWriter flushes after every write so completed artefacts reach
// the client while later jobs still run.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
