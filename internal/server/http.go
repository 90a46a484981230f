package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"specvec/internal/config"
	"specvec/internal/experiments"
	"specvec/internal/workload"
)

// handler builds the daemon's route table. The API is versioned under
// /v1 and everything speaks JSON except /metrics (Prometheus-style text)
// and the SSE event stream.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/configs", s.handleConfigs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleJobTimeline serves a completed job's span tree. Timelines are
// published when a job resolves, so a queued or running job answers 404
// with a distinct message from an unknown id.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if tl, ok := s.sched.timelines.Get(id); ok {
		writeJSON(w, http.StatusOK, tl)
		return
	}
	if job, ok := s.sched.Job(id); ok {
		writeError(w, http.StatusNotFound, "job %s has no timeline yet (state %s)", id, job.State())
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
}

// writeJSON sends v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeJobSpec reads a submitted JobSpec body: at most 1 MiB, unknown
// fields rejected. w, when non-nil, learns that an oversized body was
// cut off.
func decodeJobSpec(w http.ResponseWriter, body io.ReadCloser) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// handleSubmit accepts a JobSpec, normalizes it and queues a job.
// ?wait=1 blocks until the job resolves and returns it with its result;
// an abandoned waiting request cancels the job it submitted.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(w, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	var tied context.Context
	if wait {
		// A synchronous submission dies with its request: abandoning the
		// wait cancels the job.
		tied = r.Context()
	}
	job, err := s.sched.Submit(norm, tied)
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if !wait {
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.View(false))
		return
	}
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, job.View(true))
	case <-r.Context().Done():
		// The AfterFunc tied to the request context cancels the job; there
		// is no client left to answer.
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View(false)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.View(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View(false))
}

// handleJobEvents streams a job's progress as Server-Sent Events: the
// retained history first, then live events until the job resolves or the
// client disconnects. Event data is the JSON Event; the SSE event name is
// the Event kind.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, ch := job.subscribe()
	defer job.unsubscribe(ch)
	send := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, b)
		fl.Flush()
		return !(ev.Kind == "state" && ev.State.Terminal())
	}
	seen := -1
	for _, ev := range history {
		if !send(ev) {
			return
		}
		seen = ev.Seq
	}
	for {
		select {
		case ev := <-ch:
			if ev.Seq <= seen {
				continue // raced with the history snapshot
			}
			if !send(ev) {
				return
			}
			seen = ev.Seq
		case <-job.Done():
			// The live channel is bounded and drops under a slow client —
			// possibly including the terminal state event. Resync from
			// history so the stream always closes once the job resolves.
			for _, ev := range job.eventsSince(seen) {
				if !send(ev) {
					return
				}
				seen = ev.Seq
			}
			return
		case <-r.Context().Done():
			return
		case <-time.After(15 * time.Second):
			// Keep-alive comment so intermediaries don't reap idle streams.
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		}
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expView struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []expView
	for _, e := range experiments.All() {
		out = append(out, expView{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wlView struct {
		Name        string `json:"name"`
		FP          bool   `json:"fp"`
		Generated   bool   `json:"generated,omitempty"`
		Description string `json:"description"`
	}
	var out []wlView
	for _, b := range workload.All() {
		out = append(out, wlView{Name: b.Name, FP: b.FP, Generated: b.Generated, Description: b.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	var out []string
	for _, c := range config.Matrix() {
		out = append(out, c.Name)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": int64(time.Since(s.started).Seconds()),
	})
}

// handleMetrics renders the obs registry in Prometheus-style text: job
// and cache counters (the warm-path observability the acceptance
// criteria diff against), aggregated runner and pipeline hot-path
// counters, sampled process gauges, and the latency histograms. Every
// metric name predating the registry is preserved byte-for-byte; the
// registration order in buildRegistry is the render order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteText(w)
}
