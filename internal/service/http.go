package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rff/internal/bench"
	"rff/internal/store"
	"rff/internal/strategy"
	"rff/internal/telemetry"
	"rff/internal/triage"
)

// RequestError marks a client mistake (HTTP 400).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// NotFoundError marks a missing resource (HTTP 404).
type NotFoundError struct{ Err error }

func (e *NotFoundError) Error() string { return e.Err.Error() }
func (e *NotFoundError) Unwrap() error { return e.Err }

// UnavailableError marks a full queue or draining server (HTTP 503).
type UnavailableError struct{ Err error }

func (e *UnavailableError) Error() string { return e.Err.Error() }
func (e *UnavailableError) Unwrap() error { return e.Err }

// MHTTPRequests counts daemon HTTP requests per {method, route}.
const MHTTPRequests = "http_requests"

// Handler returns the daemon's HTTP API:
//
//	GET    /v1/healthz            liveness
//	GET    /v1/tools              strategy registry (rff tools -json shape)
//	GET    /v1/programs           benchmark program listing
//	POST   /v1/campaigns          submit a campaign
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	POST   /v1/jobs/{id}/cancel   cancel a job (DELETE /v1/jobs/{id} too)
//	GET    /v1/jobs/{id}/events   live SSE stream, replayed from event 1
//	GET    /v1/jobs/{id}/report   the job's stored report blob
//	GET    /v1/artifacts/{id}     any stored blob by content id
//	GET    /v1/clusters           triage clusters, ranked (requires -triage)
//	GET    /v1/clusters/{id}      one cluster with its canonical artifact
//	GET    /v1/metrics            daemon telemetry snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/tools", s.handleTools)
	mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	mux.HandleFunc("GET /v1/clusters/{id}", s.handleCluster)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s.logging(mux)
}

// statusWriter captures the response status for the request log while
// passing http.Flusher through — the SSE handler needs per-event
// flushing even under the logging wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logging is the structured request log: every request emits an
// http-request event and bumps the http_requests counter on the
// daemon-level telemetry sink.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if t := s.opts.Telemetry; t != nil {
			t.Add(MHTTPRequests, 1,
				telemetry.L("method", r.Method),
				telemetry.L("status", fmt.Sprintf("%d", sw.status)))
			t.Emit(EvHTTPRequest, telemetry.Fields{
				"method":   r.Method,
				"path":     r.URL.Path,
				"status":   sw.status,
				"dur_ms":   time.Since(start).Milliseconds(),
				"remote":   r.RemoteAddr,
				"bytes_in": r.ContentLength,
			})
		}
	})
}

// writeJSON renders a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses with a JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var reqErr *RequestError
	var nfErr *NotFoundError
	var unavErr *UnavailableError
	switch {
	case errors.As(err, &reqErr):
		status = http.StatusBadRequest
	case errors.As(err, &nfErr):
		status = http.StatusNotFound
	case errors.As(err, &unavErr):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": len(s.Jobs())})
}

// handleTools serves the strategy registry through the same encoder as
// `rff tools -json`.
func (s *Server) handleTools(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := strategy.WriteJSON(w); err != nil {
		writeError(w, err)
	}
}

// programView is one row of GET /v1/programs.
type programView struct {
	Name    string `json:"name"`
	Suite   string `json:"suite"`
	Bug     string `json:"bug"`
	Threads int    `json:"threads"`
	Desc    string `json:"desc,omitempty"`
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	var out []programView
	for _, p := range bench.All() {
		out = append(out, programView{
			Name:    p.Name,
			Suite:   string(p.Suite),
			Bug:     string(p.Bug),
			Threads: p.Threads,
			Desc:    p.Desc,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, &RequestError{fmt.Errorf("malformed request body: %w", err)})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &NotFoundError{fmt.Errorf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleReport serves the job's stored report blob.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &NotFoundError{fmt.Errorf("no job %q", r.PathValue("id"))})
		return
	}
	v := j.View()
	if v.Result == nil {
		writeError(w, &NotFoundError{fmt.Errorf("job %s has no report (state %s)", j.ID, v.State)})
		return
	}
	data, err := s.store.Get(v.Result.Report)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleArtifact serves any stored blob — crash artifacts, reports,
// event histories — by content address.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := store.ID(r.PathValue("id"))
	if !id.Valid() {
		writeError(w, &RequestError{fmt.Errorf("invalid content id %q", id)})
		return
	}
	data, err := s.store.Get(id)
	if err != nil {
		writeError(w, &NotFoundError{err})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Content-ID", string(id))
	w.Write(data)
}

// handleClusters serves the ranked triage report over the live cluster
// set (the same ranking `rffbench triage` prints).
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if s.triager == nil {
		writeError(w, &UnavailableError{fmt.Errorf("triage is not enabled (start rffd with -triage)")})
		return
	}
	writeJSON(w, http.StatusOK, triage.BuildReport(s.triager, s.opts.TriageDir, nil))
}

// handleCluster serves one cluster with its canonical minimal artifact.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.triager == nil {
		writeError(w, &UnavailableError{fmt.Errorf("triage is not enabled (start rffd with -triage)")})
		return
	}
	c := s.triager.Cluster(r.PathValue("id"))
	if c == nil {
		writeError(w, &NotFoundError{fmt.Errorf("no cluster %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, clusterView{Cluster: c, Canonical: c.Canonical})
}

// handleMetrics serves the daemon hub's snapshot when the daemon sink
// is a *telemetry.Hub; otherwise an empty snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.Snapshot
	if h, ok := s.opts.Telemetry.(*telemetry.Hub); ok {
		snap = h.Snapshot()
	}
	data, err := snap.MarshalJSONIndent()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleEvents is the SSE bridge: the job's full event history replays
// from event 1 (late subscribers see everything, in order), then live
// events stream until the job reaches a terminal state or the client
// disconnects. The terminal event waits for the job to settle. Event seq
// numbers become SSE ids, kinds become SSE event names.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &NotFoundError{fmt.Errorf("no job %q", r.PathValue("id"))})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.events.Subscribe()
	defer cancel()
	// send writes one event, holding the terminal event back until the
	// job has settled, so its state, report and cache entry are in place
	// by the time the client sees it.
	send := func(ev telemetry.Event) bool {
		if isTerminalKind(ev.Kind) {
			select {
			case <-j.settled:
			case <-r.Context().Done():
				return false
			}
		}
		return writeSSE(w, ev) == nil
	}
	for _, ev := range replay {
		if !send(ev) {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-live:
			if !open {
				return // stream sealed: job reached a terminal state
			}
			if !send(ev) {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one telemetry event as a Server-Sent Event.
func writeSSE(w http.ResponseWriter, ev telemetry.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil // skip unserializable payloads, keep the stream
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}
