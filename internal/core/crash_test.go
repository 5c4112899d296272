package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nok/internal/dewey"
	"nok/internal/faultfs"
	"nok/internal/samples"
	"nok/internal/vfs"
)

// crashDoc is deliberately tiny: the sweep re-runs the whole workload once
// per mutating file-system operation, so the op count bounds the runtime.
const crashDoc = `<bib><book year="2004"><title>a</title><price>9</price></book></bib>`

const crashFragment = `<book year="2005"><title>b</title><price>11</price></book>`

// loadCrashDoc is large enough that each of the four index B+ trees spans
// several pages, so the load sweep also crashes between the page writes of
// one index flush, not only between whole files.
var loadCrashDoc = "<bib>" + strings.Repeat(crashFragment, 100) + "</bib>"

// crashWorkload opens the store through fsys, inserts a fragment, deletes
// it again, inserts it once more (a commit that reuses the pages the delete
// freed), deletes it once more, and closes. Any step may fail once a fault
// is armed; the first error aborts the rest (the process "died" there).
func crashWorkload(dir string, fsys vfs.FS) error {
	db, err := Open(dir, &Options{FS: fsys})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := db.InsertFragment(dewey.Root(), strings.NewReader(crashFragment)); err != nil {
			db.Close()
			return err
		}
		if err := db.DeleteSubtree(mustID2("0.1")); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

func mustID2(s string) dewey.ID {
	id, err := dewey.Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// buildCrashBase loads crashDoc into dir fault-free and returns the node
// counts of the two committed states the sweep may observe: n0 (before the
// first insert, equal to after the delete) and n1 (after either insert).
func buildCrashBase(t *testing.T, dir string) (n0, n1 uint64) {
	t.Helper()
	db, err := LoadXML(dir, strings.NewReader(crashDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	n0 = db.NodeCount()
	if err := db.InsertFragment(dewey.Root(), strings.NewReader(crashFragment)); err != nil {
		t.Fatal(err)
	}
	n1 = db.NodeCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return n0, n1
}

// TestCrashDuringUpdateSweep is the tentpole crash-consistency test: it
// runs an open→insert→delete→insert→delete→close workload once per
// mutating file-system operation, killing the "process" at that operation,
// then reopens the store with the real file system and requires that
// recovery always lands on a committed state — node count and epoch of the
// pre-insert commit or of one of the four update commits — and that a deep
// Verify is clean.
func TestCrashDuringUpdateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep re-runs the workload once per fault point")
	}

	// Size the sweep: run the workload once with counting only.
	probeDir := t.TempDir() + "/probe"
	n0, n1 := buildCrashBase(t, probeDir)
	// The probe base already carries the insert; rebuild a clean one.
	probeDir = t.TempDir() + "/probe2"
	db, err := LoadXML(probeDir, strings.NewReader(crashDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	baseEpoch := db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	counter := faultfs.New(vfs.OS)
	if err := crashWorkload(probeDir, counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("workload performed only %d mutating ops; sweep is vacuous", total)
	}
	t.Logf("sweeping %d fault points × 2 modes (n0=%d n1=%d baseEpoch=%d)", total, n0, n1, baseEpoch)

	for _, mode := range []faultfs.Mode{faultfs.ErrOp, faultfs.ShortWrite} {
		modeName := map[faultfs.Mode]string{faultfs.ErrOp: "errop", faultfs.ShortWrite: "shortwrite"}[mode]
		for i := int64(1); i <= total; i++ {
			i, mode := i, mode
			t.Run(fmt.Sprintf("%s/op%03d", modeName, i), func(t *testing.T) {
				dir := t.TempDir() + "/db"
				db, err := LoadXML(dir, strings.NewReader(crashDoc), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				ffs := faultfs.New(vfs.OS)
				ffs.FailAt(i, mode)
				werr := crashWorkload(dir, ffs)
				if !ffs.Crashed() {
					t.Fatalf("fault at op %d never fired (workload err: %v)", i, werr)
				}
				if werr == nil {
					t.Fatalf("workload survived a crash at op %d", i)
				}

				// The store must reopen on the real file system, recovery
				// must land on a committed state, and deep verification
				// must find nothing wrong.
				re, err := Open(dir, nil)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", i, err)
				}
				defer re.Close()
				res := re.Verify(true)
				for _, is := range res.Issues {
					t.Errorf("verify after crash at op %d: %s", i, is)
				}
				n := re.NodeCount()
				if n != n0 && n != n1 {
					t.Errorf("node count %d after crash at op %d; want %d (pre/post-delete) or %d (post-insert)", n, i, n0, n1)
				}
				e := re.Epoch()
				if e < baseEpoch || e > baseEpoch+4 {
					t.Errorf("epoch %d after crash at op %d; want within [%d, %d]", e, i, baseEpoch, baseEpoch+4)
				}
				// The recovered epoch and the recovered content must name the
				// same commit: epochs base+1 and base+3 are the post-insert
				// states, base, base+2 and base+4 the one-book states around
				// them.
				wantN := n0
				if (e-baseEpoch)%2 == 1 {
					wantN = n1
				}
				if n != wantN {
					t.Errorf("epoch %d with node count %d after crash at op %d: epoch and content disagree", e, n, i)
				}
				// COW recovery leaves no MVCC debris: one live version, any
				// pages a torn transaction wrote swept into the free list,
				// none unaccounted.
				mi := re.MVCCInfo()
				if mi.LiveVersions != 1 || mi.OrphanPages != 0 {
					t.Errorf("MVCC state after crash at op %d: %+v", i, mi)
				}
				// The recovered store must accept new commits.
				if err := re.InsertFragment(dewey.Root(), strings.NewReader(crashFragment)); err != nil {
					t.Errorf("insert after recovery from crash at op %d: %v", i, err)
				} else if got := re.Epoch(); got != e+1 {
					t.Errorf("epoch %d after post-recovery insert, want %d", got, e+1)
				}
			})
		}
	}
}

// TestCrashDuringLoadSweep covers the initial bulk load, in both fault
// modes: a crash at any point before the manifest commit must leave a
// directory that Open rejects cleanly with ErrNoManifest (never a
// half-built store that opens as valid); a crash after the commit point
// must open and verify clean.
func TestCrashDuringLoadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep re-runs the load once per fault point")
	}

	counter := faultfs.New(vfs.OS)
	dir := t.TempDir() + "/probe"
	db, err := LoadXML(dir, strings.NewReader(loadCrashDoc), &Options{FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := db.NodeCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	t.Logf("sweeping %d load fault points × 2 modes", total)

	for _, mode := range []faultfs.Mode{faultfs.ErrOp, faultfs.ShortWrite} {
		for i := int64(1); i <= total; i++ {
			i, mode := i, mode
			// ErrOp subtests are named opNNN, ShortWrite ones shortwrite/opNNN.
			name := fmt.Sprintf("op%03d", i)
			if mode == faultfs.ShortWrite {
				name = "shortwrite/" + name
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir() + "/db"
				ffs := faultfs.New(vfs.OS)
				ffs.FailAt(i, mode)
				db, err := LoadXML(dir, strings.NewReader(loadCrashDoc), &Options{FS: ffs})
				if err == nil {
					err = db.Close()
				}
				if !ffs.Crashed() {
					t.Fatalf("fault at op %d never fired (load err: %v)", i, err)
				}

				re, openErr := Open(dir, nil)
				if openErr != nil {
					if !errors.Is(openErr, ErrNoManifest) {
						t.Fatalf("reopen after load crash at op %d: %v, want ErrNoManifest", i, openErr)
					}
					return
				}
				// Crash after the commit point: the store must be whole.
				defer re.Close()
				res := re.Verify(true)
				for _, is := range res.Issues {
					t.Errorf("verify after load crash at op %d: %s", i, is)
				}
				if n := re.NodeCount(); n != wantNodes {
					t.Errorf("node count %d after load crash at op %d, want %d", n, i, wantNodes)
				}
			})
		}
	}
}

// TestCrashRecoveryReporting spot-checks that RecoveryInfo reflects what
// recovery actually did after a mid-update crash.
func TestCrashRecoveryReporting(t *testing.T) {
	dir := t.TempDir() + "/db"
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash somewhere in the middle of the insert's write traffic.
	ffs := faultfs.New(vfs.OS)
	ffs.FailAt(20, faultfs.ShortWrite)
	if err := crashWorkload(dir, ffs); err == nil {
		t.Fatal("workload survived an armed fault")
	}

	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovery()
	if !rec.Recovered() {
		t.Error("recovery after a mid-update crash reported nothing to do")
	}
	if res := re.Verify(true); !res.OK() {
		for _, is := range res.Issues {
			t.Errorf("verify: %s", is)
		}
	}
}
