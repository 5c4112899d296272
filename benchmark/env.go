package main

// env.go — everything a run owns: the work directory, the stores, the
// loopback servers. All of it lives in this process; nothing is exec'd.
// Resources register a closer as they are created and closeAll runs the
// closers in reverse, so a coordinator (and the remote clients inside its
// shard.Store) always goes away before the member servers it talks to.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"nok"
	"nok/internal/datagen"
	"nok/internal/ingest"
	"nok/internal/remote"
	"nok/internal/server"
	"nok/internal/shard"
)

type env struct {
	dir     string
	closers []func() error
}

// newEnv creates the run's private directory under parent ("" selects the
// system temp directory).
func newEnv(parent string) (*env, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(parent, runDirPrefix())
	if err != nil {
		return nil, err
	}
	return &env{dir: dir}, nil
}

// runDirPrefix names this process's run directories, so the watchdog can
// find and remove them without any shared state.
func runDirPrefix() string { return fmt.Sprintf("nokbench-%d-", os.Getpid()) }

// removeRunDirs deletes every run directory of this process under parent.
func removeRunDirs(parent string) {
	if parent == "" {
		parent = os.TempDir()
	}
	dirs, _ := filepath.Glob(filepath.Join(parent, runDirPrefix()+"*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func (e *env) onClose(f func() error) { e.closers = append(e.closers, f) }

// closeAll releases every registered resource, newest first. It is safe to
// call more than once.
func (e *env) closeAll() error {
	var errs []error
	for i := len(e.closers) - 1; i >= 0; i-- {
		errs = append(errs, e.closers[i]())
	}
	e.closers = nil
	return errors.Join(errs...)
}

// Close releases everything and removes the work directory.
func (e *env) Close() error {
	err := e.closeAll()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// serverConfig is what every nokserve in the benchmark runs with: result
// cache off so each request evaluates, and a 100-document ingest batch so
// one durable POST /ingest of 100 documents is exactly one group commit.
// The interval trigger is pushed out of reach: it could otherwise split a
// POST into two epochs and the epoch check after the run would be racy.
func serverConfig() server.Config {
	return server.Config{
		CacheEntries: -1,
		Ingest:       ingest.Options{BatchDocs: docsPerCommit, BatchInterval: time.Hour},
	}
}

// serve puts backend behind a loopback listener and returns its base URL.
// With a tracer the backend and the handler are decorated (see trace.go).
// The server owns the backend from here on: closing it drains the ingest
// pipeline and closes the store.
func (e *env) serve(backend server.Backend, tr *tracer, role string) string {
	var h http.Handler
	var srv *server.Server
	if tr != nil {
		tb := newTracedBackend(backend, tr, role)
		var decorated server.Backend = tb
		if fp, ok := backend.(server.CacheFingerprinter); ok {
			decorated = fingerprintingBackend{tb, fp}
		}
		srv = server.NewBackend(decorated, serverConfig())
		h = tb.handler(srv)
	} else {
		srv = server.NewBackend(backend, serverConfig())
		h = srv
	}
	ts := httptest.NewServer(h)
	e.onClose(func() error {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	})
	return ts.URL
}

// dataset is one generated document and the store built from it.
type dataset struct {
	Name     string // datagen spec name
	Scale    int
	XMLPath  string
	XMLBytes int64
	Dir      string
	URL      string // base URL of the server over the store, "" if none
	Nodes    uint64
	CreateS  float64        // seconds spent in CreateFromFile
	Pages    map[string]int // page-file name -> pages, read after creation

	// store is owned by the server behind URL; in-process probes may use it
	// while that server is up.
	store *nok.Store
}

// generate writes the dataset's XML under dir.
func generate(dir, name string, scale int, seed int64, label string) (*dataset, error) {
	spec, ok := datagen.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	d := &dataset{Name: name, Scale: scale,
		XMLPath: filepath.Join(dir, label+".xml"), Dir: filepath.Join(dir, label+".db")}
	if err := datagen.GenerateFile(spec, d.XMLPath, scale, seed); err != nil {
		return nil, err
	}
	fi, err := os.Stat(d.XMLPath)
	if err != nil {
		return nil, err
	}
	d.XMLBytes = fi.Size()
	return d, nil
}

// create loads the dataset into a single store; the caller hands d.store
// to serve.
func (d *dataset) create(poolPages int) error {
	t0 := time.Now()
	st, err := nok.CreateFromFile(d.Dir, d.XMLPath, &nok.Options{PoolPages: poolPages})
	if err != nil {
		return fmt.Errorf("create %s: %w", d.Dir, err)
	}
	d.CreateS = time.Since(t0).Seconds()
	d.store, d.Nodes, d.Pages = st, st.NodeCount(), pageCounts(d.Dir)
	return nil
}

// pageCounts lists the *.pg files of a store directory with their sizes in
// 4 KiB pages — the "index files against pool" figure README.md states.
func pageCounts(dir string) map[string]int {
	out := map[string]int{}
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".pg" {
			continue
		}
		if fi, err := ent.Info(); err == nil {
			out[ent.Name()] = int(fi.Size() / 4096)
		}
	}
	return out
}

// cluster is the scatter topology: a 4-shard collection whose members are
// each a loopback server, and a coordinator server over the shard.Store
// that reaches them through internal/remote.
type cluster struct {
	Dir     string
	URL     string // coordinator
	Members []string
	CreateS float64
}

const clusterShards = 4

// createCluster splits d's XML into a hash-routed collection, optionally
// lets probe use the collection while it is still all in-process, then
// puts every member behind its own server and the coordinator in front.
func (e *env) createCluster(d *dataset, tr *tracer, probe func(*shard.Store) error) (*cluster, error) {
	c := &cluster{Dir: filepath.Join(e.dir, "coll")}
	t0 := time.Now()
	created, err := shard.CreateFromFile(c.Dir, d.XMLPath, &shard.Options{Shards: clusterShards, Strategy: shard.StrategyHash})
	if err != nil {
		return nil, fmt.Errorf("shard create: %w", err)
	}
	c.CreateS = time.Since(t0).Seconds()
	if probe != nil {
		if err := probe(created); err != nil {
			created.Close()
			return nil, err
		}
	}
	if err := created.Close(); err != nil {
		return nil, err
	}
	for s := 0; s < clusterShards; s++ {
		st, err := nok.Open(filepath.Join(c.Dir, fmt.Sprintf("shard-%04d", s)), nil)
		if err != nil {
			return nil, err
		}
		c.Members = append(c.Members, e.serve(st, tr, "member"))
	}
	if err := shard.SetShardAddrs(c.Dir, c.Members); err != nil {
		return nil, err
	}
	var rcfg *remote.Config
	if tr != nil {
		rcfg = &remote.Config{Transport: tr.roundTripper()}
	}
	coord, err := shard.OpenWithOptions(c.Dir, &shard.OpenOptions{Remote: rcfg})
	if err != nil {
		return nil, err
	}
	c.URL = e.serve(coord, tr, "server")
	return c, nil
}

// diskBytes sums the regular files under the given directories.
func diskBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(_ string, ent fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if ent.Type().IsRegular() {
				fi, err := ent.Info()
				if err != nil {
					return err
				}
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
