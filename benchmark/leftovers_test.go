package main

import (
	"context"
	"io"
	"net"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// goroutineBaseline counts goroutines before a test that calls runMain. The
// runtime's signal-delivery goroutine starts with the first Notify and never
// exits; it is started before counting.
func goroutineBaseline() int {
	_, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	stop()
	return runtime.NumGoroutine()
}

// noRunDirs fails if a run directory of this process is still under parent.
func noRunDirs(t *testing.T, parent string) {
	t.Helper()
	left, _ := filepath.Glob(filepath.Join(parent, runDirPrefix()+"*"))
	if len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// TestNoLeftoversAfterClose builds the widest topology (coordinator, four
// members, two single stores), closes it, and checks that every listener
// refuses connections, the goroutine count is back at its baseline and the
// run directory is gone.
func TestNoLeftoversAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	parent := t.TempDir()
	root, err := newEnv(parent)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := partsFor("scatter")
	tp, err := buildTopology(root, smokeConfig(t, "scatter", 1), p, nil)
	if err != nil {
		root.Close()
		t.Fatal(err)
	}
	ld := newLoader(2, nil)
	ld.warm(context.Background(), tp.mixes["scatter"])
	ld.close()
	if ld.failed.Load() != 0 {
		t.Errorf("warm-up failed: %v", ld.firstErr)
	}
	urls := append([]string{tp.big.URL, tp.small.URL, tp.cluster.URL}, tp.cluster.Members...)
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		pu, err := url.Parse(u)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := net.DialTimeout("tcp", pu.Host, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", u)
		}
	}
	if err := goroutinesSettled(baseline); err != nil {
		t.Error(err)
	}
	noRunDirs(t, parent)
}

// TestNoLeftoversAfterSIGTERM sends the process SIGTERM in the middle of
// the scatter read phase: the run must end with a non-zero exit code, the
// goroutine baseline (checked by runMain itself on success) must come
// back, and the work directory must be empty.
func TestNoLeftoversAfterSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("waits three seconds for the read phase to begin")
	}
	baseline := goroutineBaseline()
	parent := t.TempDir()
	go func() {
		time.Sleep(3 * time.Second)
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	code := runMain([]string{"--workload", "scatter", "--seconds", "30", "-scale", "1", "-workdir", parent, "-bench", "../BENCHMARK.json"}, io.Discard)
	if code != 1 {
		t.Errorf("exit code %d after SIGTERM, want 1", code)
	}
	if err := goroutinesSettled(baseline); err != nil {
		t.Error(err)
	}
	noRunDirs(t, parent)
}

// TestNoLeftoversAfterError makes set-up fail (the work directory cannot
// be created under a regular file) and checks the same.
func TestNoLeftoversAfterError(t *testing.T) {
	baseline := goroutineBaseline()
	parent := t.TempDir()
	blocker := filepath.Join(parent, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runMain([]string{"--workload", "nav", "-scale", "1", "-workdir", filepath.Join(blocker, "sub"), "-bench", "../BENCHMARK.json"}, io.Discard); code != 1 {
		t.Errorf("exit code %d with an unusable work directory, want 1", code)
	}
	// A failure after stores and servers exist: an impossible dataset scale
	// is rejected by flag checking, so cancel the context mid set-up.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runWorkload(ctx, config{Workload: "nav", Seed: 1, Seconds: 0.3, Scale: 1, Clients: 2, Workdir: parent}); err == nil {
		t.Error("runWorkload succeeded on a cancelled context")
	}
	if err := goroutinesSettled(baseline); err != nil {
		t.Error(err)
	}
	noRunDirs(t, parent)
}
