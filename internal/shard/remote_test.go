package shard

// remote_test.go — the mixed local/remote coordinator against real
// loopback nokserve processes (the same server.Server the binary runs),
// plus the failure-path contracts: fail-fast typed unavailability,
// opt-in degraded partial results, and shutdown racing an in-flight
// remote scatter.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nok"
	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/remote"
	"nok/internal/server"
)

// fastRemote keeps failure detection quick and deterministic in tests:
// no background prober, no retries unless the test opts in.
func fastRemote() *remote.Config {
	return &remote.Config{
		AttemptTimeout: 2 * time.Second,
		MaxRetries:     -1,
		ProbeInterval:  -1,
	}
}

// serveMixed builds a sharded collection from xml, then rewires the
// shards listed in remoteIdx onto loopback server.Server instances and
// opens the coordinator. The returned servers map is keyed by shard
// index so tests can kill individual shards.
func serveMixed(t *testing.T, xml string, shards int, remoteIdx []int, rcfg *remote.Config) (*Store, map[int]*httptest.Server) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "coll")
	created, err := Create(dir, strings.NewReader(xml), &Options{Shards: shards, Strategy: StrategyHash})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := created.Close(); err != nil {
		t.Fatalf("Close after create: %v", err)
	}

	servers := make(map[int]*httptest.Server)
	addrs := make([]string, shards)
	for _, s := range remoteIdx {
		sub, err := nok.Open(shardDir(dir, s), nil)
		if err != nil {
			t.Fatalf("open member %d: %v", s, err)
		}
		srv := server.NewBackend(sub, server.Config{CacheEntries: -1})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // closes sub
		})
		servers[s] = ts
		addrs[s] = ts.URL
	}
	if err := SetShardAddrs(dir, addrs); err != nil {
		t.Fatalf("SetShardAddrs: %v", err)
	}
	if rcfg == nil {
		rcfg = fastRemote()
	}
	st, err := OpenWithOptions(dir, &OpenOptions{Remote: rcfg})
	if err != nil {
		t.Fatalf("OpenWithOptions: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, servers
}

// TestRemoteOracle: with one shard remote and with every shard remote,
// the coordinator answers byte-identically to a single store holding the
// merged collection — the same oracle the all-local topology is held to.
func TestRemoteOracle(t *testing.T) {
	xml := collection(30)
	dir := t.TempDir()
	single, err := nok.Create(filepath.Join(dir, "single"), strings.NewReader(xml), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	for name, remoteIdx := range map[string][]int{
		"one-remote": {1},
		"all-remote": {0, 1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			st, _ := serveMixed(t, xml, 3, remoteIdx, nil)
			for _, q := range shardableQueries {
				compareQuery(t, single, st, q, nil)
			}
			if h := st.Health(); len(h) != 3 {
				t.Fatalf("health entries: %d", len(h))
			} else {
				for _, sh := range h {
					if !sh.Healthy || sh.Breaker == "open" {
						t.Errorf("shard %d unhealthy in a healthy cluster: %+v", sh.Shard, sh)
					}
				}
			}
		})
	}
}

// TestRemoteMutations routes inserts and deletes through the HTTP
// backend: the coordinator locates the owning shard, the remote process
// applies the mutation, and subsequent scattered queries observe it.
func TestRemoteMutations(t *testing.T) {
	st, _ := serveMixed(t, collection(12), 2, []int{0, 1}, nil)

	articles, err := st.Query(`//article`)
	if err != nil {
		t.Fatal(err)
	}
	if len(articles) == 0 {
		t.Fatal("no articles to insert under")
	}
	parent := articles[0].ID

	if err := st.Insert(parent, strings.NewReader(`<errata note="fixed">two typos</errata>`)); err != nil {
		t.Fatalf("remote insert: %v", err)
	}
	rs, err := st.Query(`//errata`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Value != "two typos" {
		t.Fatalf("inserted node not visible through scatter: %+v", rs)
	}
	if v, ok, err := st.Value(rs[0].ID); err != nil || !ok || v != "two typos" {
		t.Fatalf("Value over HTTP: %q ok=%v err=%v", v, ok, err)
	}

	if err := st.Delete(rs[0].ID); err != nil {
		t.Fatalf("remote delete: %v", err)
	}
	rs, err = st.Query(`//errata`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("deleted node still visible: %+v", rs)
	}
}

// TestRemoteUnavailableFailFast: without the partial-results opt-in, a
// down shard fails the query with the typed sentinel — never a silently
// short answer.
func TestRemoteUnavailableFailFast(t *testing.T) {
	st, servers := serveMixed(t, collection(18), 2, []int{1}, nil)
	servers[1].Close() // connection refused from now on

	_, _, err := st.QueryWithOptions(`//book`, nil)
	if err == nil {
		t.Fatal("query over a dead shard succeeded without AllowPartial")
	}
	if !errors.Is(err, core.ErrShardUnavailable) {
		t.Fatalf("got %v, want core.ErrShardUnavailable", err)
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) || len(ue.Shards) != 1 || ue.Shards[0] != 1 {
		t.Fatalf("unavailable detail: %v", err)
	}
}

// TestRemoteAllowPartial: with the opt-in, the same topology yields the
// healthy shards' results flagged Degraded with the missing-shard list —
// exactly the full answer minus the dead shard's contribution.
func TestRemoteAllowPartial(t *testing.T) {
	st, servers := serveMixed(t, collection(18), 2, []int{1}, nil)

	// Healthy baseline: total count and shard 1's share of it.
	full, stats, err := st.QueryWithOptions(`//book`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded {
		t.Fatalf("healthy query marked degraded: %+v", stats)
	}
	shard1 := 0
	for _, sh := range stats.Shards {
		if sh.Shard == 1 {
			shard1 = sh.Results
		}
	}
	if shard1 == 0 {
		t.Fatal("test needs shard 1 to own some books")
	}

	servers[1].Close()
	got, stats, err := st.QueryWithOptions(`//book`, &nok.QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("degraded query failed despite AllowPartial: %v", err)
	}
	if !stats.Degraded {
		t.Fatal("stats not marked degraded")
	}
	if len(stats.MissingShards) != 1 || stats.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", stats.MissingShards)
	}
	if len(got) != len(full)-shard1 {
		t.Fatalf("degraded answer has %d results, want %d (full %d minus shard 1's %d)",
			len(got), len(full)-shard1, len(full), shard1)
	}
	// Every surviving result appears in the full answer: a correct subset.
	want := make(map[nok.Result]bool, len(full))
	for _, r := range full {
		want[r] = true
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("degraded result %+v not in the full answer", r)
		}
	}
	// The per-shard trace names the dead shard.
	found := false
	for _, sh := range stats.Shards {
		if sh.Shard == 1 && sh.Unavailable {
			found = true
		}
	}
	if !found {
		t.Errorf("shard 1 not marked unavailable in timings: %+v", stats.Shards)
	}

	// Health surfaces the failure for operators.
	for _, sh := range st.Health() {
		if sh.Shard == 1 && sh.Healthy && sh.Breaker == "closed" {
			// Either the healthy flag or the breaker must have noticed.
			t.Errorf("shard 1 still fully healthy after failures: %+v", sh)
		}
	}
}

// TestRemoteCloseDuringScatter races Close against an in-flight remote
// scatter (run under -race in CI): the query must unblock promptly and
// the close must not hang or panic.
func TestRemoteCloseDuringScatter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coll")
	created, err := Create(dir, strings.NewReader(collection(12)), &Options{Shards: 2, Strategy: StrategyHash})
	if err != nil {
		t.Fatal(err)
	}
	created.Close()

	// Shard 1 is a black hole that holds every scatter until the client
	// gives up or is canceled.
	entered := make(chan struct{}, 8)
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-r.Context().Done()
	}))
	defer hang.Close()
	if err := SetShardAddrs(dir, []string{"", hang.URL}); err != nil {
		t.Fatal(err)
	}
	cfg := fastRemote()
	cfg.AttemptTimeout = 30 * time.Second // only Close can unblock it
	st, err := OpenWithOptions(dir, &OpenOptions{Remote: cfg})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := st.QueryWithOptions(`//book`, nil)
		done <- err
	}()
	<-entered // the remote scatter is in flight
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("query against a hung shard succeeded after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query still blocked 10s after Close")
	}
}

// TestRemoteRetryHeals: transient failures within the retry budget are
// invisible to the caller — the query succeeds with no degradation.
func TestRemoteRetryHeals(t *testing.T) {
	xml := collection(18)
	dir := filepath.Join(t.TempDir(), "coll")
	created, err := Create(dir, strings.NewReader(xml), &Options{Shards: 2, Strategy: StrategyHash})
	if err != nil {
		t.Fatal(err)
	}
	created.Close()

	sub, err := nok.Open(shardDir(dir, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewBackend(sub, server.Config{CacheEntries: -1})
	// Flaky front: fail each distinct scatter path once, then forward.
	failed := make(map[string]bool)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.String()
		if strings.HasPrefix(r.URL.Path, "/scatter") && !failed[key] {
			failed[key] = true
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer func() {
		flaky.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := SetShardAddrs(dir, []string{"", flaky.URL}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWithOptions(dir, &OpenOptions{Remote: &remote.Config{
		MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, ProbeInterval: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rs, stats, err := st.QueryWithOptions(`//book`, nil)
	if err != nil {
		t.Fatalf("query through flaky shard: %v", err)
	}
	if stats.Degraded {
		t.Fatal("retried-and-recovered query marked degraded")
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
}

// authorOn returns the ID of an <author> element inside a document shard
// s owns: a deep parent whose inserts go to that shard alone.
func authorOn(t *testing.T, st *Store, s int) string {
	t.Helper()
	rs, err := st.Query(`//author`)
	if err != nil {
		t.Fatal(err)
	}
	man := st.Manifest()
	for _, r := range rs {
		id, err := dewey.Parse(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _, routed := man.globalToLocal(id[1]); routed && owner == s {
			return r.ID
		}
	}
	t.Fatalf("no author on shard %d", s)
	return ""
}

// TestRemoteDeepInsertBatch: a deep-parent batch bound for a remote shard
// is validated before the member sees any of it, so a malformed fragment
// is a retryable *FragmentError with nothing committed; and a transport
// failure is never a *FragmentError, because the timed-out POST may have
// committed and dropping a well-formed document would lose it.
func TestRemoteDeepInsertBatch(t *testing.T) {
	st, servers := serveMixed(t, collection(12), 2, []int{1}, nil)
	parent := authorOn(t, st, 1)
	count := func() int {
		rs, err := st.Query(`//last`)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	before := count()

	err := st.InsertBatch(parent, [][]byte{[]byte(`<last>DeepGood</last>`), []byte(`<last>bad</wrong>`)})
	var fe *nok.FragmentError
	if !errors.As(err, &fe) || fe.Index != 1 {
		t.Fatalf("malformed deep batch: got %v, want *FragmentError{Index: 1}", err)
	}
	if got := count(); got != before {
		t.Fatalf("rejected deep batch committed fragments: %d -> %d lasts", before, got)
	}

	servers[1].Close()
	err = st.InsertBatch(parent, [][]byte{[]byte(`<last>DeepGood</last>`)})
	if err == nil {
		t.Fatal("deep batch to a stopped member succeeded")
	}
	if errors.As(err, &fe) {
		t.Fatalf("transport failure reported as retryable %v", err)
	}
}

// TestRemoteInsertBatch: top-level and deep-parent batches through a
// coordinator with remote members answer exactly like a single store fed
// the same batches; a batch that hits a stopped member fails as a fatal
// (non-FragmentError) error, and the SHARDS assignment written for it
// lists exactly the documents the live members hold.
func TestRemoteInsertBatch(t *testing.T) {
	xml := collection(15)
	for name, remoteIdx := range map[string][]int{
		"one-remote": {1},
		"all-remote": {0, 1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			single, err := nok.Create(filepath.Join(t.TempDir(), "single"), strings.NewReader(xml), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			st, servers := serveMixed(t, xml, 3, remoteIdx, nil)

			docs := batchFragments(20, 0)
			deep := [][]byte{[]byte(`<last>DeepA</last>`), []byte(`<first>DeepB</first>`), []byte(`<last>DeepC</last>`)}
			parent := authorOn(t, st, 1)
			for _, b := range []struct {
				parent string
				frags  [][]byte
			}{{"0", docs}, {parent, deep}} {
				if err := single.InsertBatch(b.parent, b.frags); err != nil {
					t.Fatalf("single batch under %s: %v", b.parent, err)
				}
				if err := st.InsertBatch(b.parent, b.frags); err != nil {
					t.Fatalf("sharded batch under %s: %v", b.parent, err)
				}
			}
			for _, q := range append(shardableQueries, `//author[last="DeepC"]/first`, `//article/title`) {
				compareQuery(t, single, st, q, nil)
			}

			deadAssign := st.Manifest().Assign[1]
			servers[1].Close()
			err = st.InsertBatch("0", batchFragments(12, 100))
			var fe *nok.FragmentError
			if err == nil || errors.As(err, &fe) {
				t.Fatalf("batch over a stopped member: got %v, want a non-FragmentError failure", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenWithOptions(st.dir, &OpenOptions{Remote: fastRemote()})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			man := re.Manifest()
			if fmt.Sprint(man.Assign[1]) != fmt.Sprint(deadAssign) {
				t.Errorf("stopped member's assignment moved: %v -> %v", deadAssign, man.Assign[1])
			}
			for _, s := range []int{0, 2} {
				v, err := re.shards[s].View()
				if err != nil {
					t.Fatal(err)
				}
				held := 0
				for _, q := range []string{`/bib/book`, `/bib/article`} {
					res, err := v.Scatter(context.Background(), q, nil)
					if err != nil {
						v.Release()
						t.Fatalf("shard %d: %v", s, err)
					}
					held += len(res.Results)
				}
				v.Release()
				if held != len(man.Assign[s]) {
					t.Errorf("shard %d holds %d documents, SHARDS assigns %d", s, held, len(man.Assign[s]))
				}
			}
		})
	}
}
