package server

// scatter.go — the binary shard-to-coordinator endpoint.
//
// GET /scatter?q=EXPR[&strategy=S][&planner=0][&pageskip=0][&parallel=0]
// evaluates the pattern against this process's store and streams the
// matches back in the remote package's frame format: dewey-ordered
// results ready for the coordinator's k-way merge, the evaluation stats,
// and an explicit end frame so a severed connection can never pass for a
// short result set. When the store's statistics prove the pattern cannot
// match here, the response is a single pruned frame — the coordinator's
// shard pruning, evaluated server-side where the synopsis lives.

import (
	"context"
	"net/http"
	"time"

	"nok"
	"nok/internal/pattern"
	"nok/internal/remote"
)

// scatterContentType names the binary scatter stream.
const scatterContentType = "application/x-nok-scatter"

func (s *Server) handleScatter(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	expr := r.FormValue("q")
	if expr == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if _, err := pattern.Parse(expr); err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	strat, err := parseStrategy(r.FormValue("strategy"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := &nok.QueryOptions{
		Strategy:        strat,
		DisablePageSkip: r.FormValue("pageskip") == "0",
		DisablePlanner:  r.FormValue("planner") == "0",
		DisableParallel: r.FormValue("parallel") == "0",
	}
	timeout := s.cfg.QueryTimeout
	if v := r.FormValue("timeout"); v != "" {
		if d, perr := time.ParseDuration(v); perr == nil && d > 0 && d < timeout {
			timeout = d
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.writeQueryError(w, err)
		return
	}
	defer s.pool.release()

	// Server-side pruning: one round trip answers both "can this shard
	// match at all" and, if so, the matches themselves.
	if empty, reason, perr := s.store.ProvablyEmpty(expr); perr == nil && empty {
		w.Header().Set("Content-Type", scatterContentType)
		_ = remote.WriteScatter(w, &remote.ScatterResult{Pruned: true, Reason: reason, Epoch: s.store.Epoch()})
		return
	}

	results, stats, err := s.store.QueryWithOptionsContext(ctx, expr, opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	w.Header().Set("Content-Type", scatterContentType)
	_ = remote.WriteScatter(w, &remote.ScatterResult{Results: results, Stats: stats, Epoch: s.store.Epoch()})
}
