package server

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"

	"nok/internal/ingest"
	"nok/internal/telemetry"
)

type ingestResponse struct {
	OK   bool `json:"ok"`
	Docs int  `json:"docs"`
	// Durable reports whether the response waited for the group commit
	// (the default); with ?wait=0 the documents are accepted but may still
	// be buffered.
	Durable bool   `json:"durable"`
	Epoch   uint64 `json:"epoch"`
	Nodes   uint64 `json:"nodes"`
}

// handleIngest streams a concatenation of XML document fragments from the
// request body into the shared group-commit pipeline. Concurrent requests
// coalesce into the same commits — that is the throughput win over
// POST /insert. By default the response waits for durability (the Flush
// barrier); ?wait=0 returns 202 as soon as the documents are accepted.
//
// Backpressure maps to 429 + Retry-After. Documents accepted before the
// refusal stay accepted (they commit with the next batch); the response
// body says how many, so the client resumes from there.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()
	if s.refuseMutation(w) {
		return
	}

	accepted := 0
	sp := ingest.NewSplitter(r.Body)
	// Cap single documents at the pipeline's in-flight budget: Submit
	// always admits into an empty pipeline, so without this cap one
	// oversized document would buffer in full and bypass backpressure.
	sp.MaxDocBytes = s.ingest.Budget()
	for {
		doc, err := sp.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ingest.ErrDocTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"document %d too large: %v", accepted, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "malformed fragment stream after %d documents: %v", accepted, err)
			return
		}
		if err := s.ingest.Submit(doc); err != nil {
			s.writeIngestError(w, err, accepted)
			return
		}
		accepted++
	}
	if accepted == 0 {
		writeError(w, http.StatusBadRequest, "no documents in request body")
		return
	}
	mMutations.Inc()

	status := http.StatusAccepted
	durable := r.URL.Query().Get("wait") != "0"
	if durable {
		if err := s.ingest.Flush(); err != nil {
			s.writeIngestError(w, err, accepted)
			return
		}
		status = http.StatusOK
	}
	writeJSON(w, status, ingestResponse{
		OK: true, Docs: accepted, Durable: durable, Epoch: s.store.Epoch(), Nodes: s.store.NodeCount(),
	})
}

// writeIngestError maps pipeline failures: backpressure to 429 +
// Retry-After (retryable), a dead pipeline to degraded mode + 503.
func (s *Server) writeIngestError(w http.ResponseWriter, err error, accepted int) {
	var bp *ingest.BackpressureError
	if errors.As(err, &bp) {
		secs := int(math.Ceil(bp.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		mRejected.Inc()
		writeError(w, http.StatusTooManyRequests,
			"ingest backpressure after %d accepted documents: %v", accepted, err)
		return
	}
	if errors.Is(err, ingest.ErrClosed) {
		writeError(w, http.StatusServiceUnavailable, "ingest pipeline is shut down")
		return
	}
	// Anything else killed the pipeline (store-level failure): later
	// submissions fail fast, so stop taking mutations until an operator
	// restarts.
	s.setDegraded("ingest pipeline failed; restart to recover to the last commit")
	writeError(w, http.StatusServiceUnavailable, "%v", err)
}

type debugIngestResponse struct {
	Stats   ingest.Stats             `json:"stats"`
	Pending int64                    `json:"pending_bytes"`
	Recent  []*telemetry.IngestBatch `json:"recent"`
}

// handleDebugIngest exposes the pipeline's lifetime counters and the
// ingest flight recorder (most recent group commits, newest first).
func (s *Server) handleDebugIngest(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()
	n := 16
	if v := r.FormValue("n"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k > 0 {
			n = k
		}
	}
	writeJSON(w, http.StatusOK, debugIngestResponse{
		Stats:   s.ingest.Stats(),
		Pending: s.ingest.Pending(),
		Recent:  telemetry.Default.IngestRecent(n),
	})
}
