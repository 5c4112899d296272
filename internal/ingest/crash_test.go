package ingest

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/faultfs"
	"nok/internal/vfs"
)

// coreTarget adapts *core.DB to the pipeline's Target so the crash sweep
// can inject faults through core.Options.FS (the public nok.Options has no
// file-system hook — crash plumbing stays internal).
type coreTarget struct{ db *core.DB }

func (t coreTarget) InsertBatch(parentID string, frags [][]byte) error {
	id, err := dewey.Parse(parentID)
	if err != nil {
		return err
	}
	readers := make([]io.Reader, len(frags))
	for i, f := range frags {
		readers[i] = bytes.NewReader(f)
	}
	return t.db.InsertFragmentBatch(id, readers)
}

func (t coreTarget) Epoch() uint64 { return t.db.Epoch() }

const ingestCrashDoc = `<col><doc n="seed"><v>0</v></doc></col>`

// crashBatches is how many group commits the ingest crash workload makes.
const crashBatches = 4

// ingestCrashWorkload opens the store through fsys and streams
// crashBatches deterministic 3-document batches through a pipeline
// (BatchDocs 4 and a huge interval mean only the Flush barriers trigger
// commits, so the file-system op sequence is identical on every run). Any
// step may fail once a fault is armed; the first error aborts the rest
// (the process "died" there).
func ingestCrashWorkload(dir string, fsys vfs.FS) error {
	db, err := core.Open(dir, &core.Options{FS: fsys})
	if err != nil {
		return err
	}
	p := NewPipeline(coreTarget{db}, Options{BatchDocs: 4, BatchInterval: time.Hour})
	werr := func() error {
		for batch := 0; batch < crashBatches; batch++ {
			for i := 0; i < 3; i++ {
				doc := fmt.Sprintf(`<doc n="c%d"><v>x</v></doc>`, batch*3+i)
				if err := p.Submit([]byte(doc)); err != nil {
					return err
				}
			}
			if err := p.Flush(); err != nil {
				return err
			}
		}
		return nil
	}()
	cerr := p.Close()
	dberr := db.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	return dberr
}

// TestCrashIngestSweep kills the "process" at every mutating file-system
// operation of a crashBatches-batch ingest and requires that recovery always
// lands on a committed batch boundary: node count and epoch of the base or
// of one of the post-batch commits, agreeing with each other, with
// a clean deep Verify, no MVCC debris, and — the ingest-specific
// obligation — a synopsis that matches the recovered store exactly, so the
// planner is never left with stale statistics after a crash mid-stream.
func TestCrashIngestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep re-runs the ingest workload once per fault point")
	}

	// Probe run: record the committed states and the op count.
	probe := t.TempDir() + "/probe"
	db, err := core.LoadXML(probe, strings.NewReader(ingestCrashDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	n0, baseEpoch := db.NodeCount(), db.Epoch()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	counter := faultfs.New(vfs.OS)
	if err := ingestCrashWorkload(probe, counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("ingest workload performed only %d mutating ops; sweep is vacuous", total)
	}
	db, err = core.Open(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	nEnd := db.NodeCount()
	if got := db.Epoch(); got != baseEpoch+crashBatches {
		t.Fatalf("probe ended on epoch %d, want %d (exactly %d group commits)", got, baseEpoch+crashBatches, crashBatches)
	}
	// All batches are the same shape, so each adds an equal share of the
	// nodes.
	if (nEnd-n0)%crashBatches != 0 {
		t.Fatalf("%d equal batches added %d nodes, not a multiple of %d", crashBatches, nEnd-n0, crashBatches)
	}
	per := (nEnd - n0) / crashBatches
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wantNodes := map[uint64]uint64{}
	for b := uint64(0); b <= crashBatches; b++ {
		wantNodes[baseEpoch+b] = n0 + b*per
	}
	t.Logf("sweeping %d fault points × 2 modes (n0=%d nEnd=%d per batch=%d baseEpoch=%d)", total, n0, nEnd, per, baseEpoch)

	for _, mode := range []faultfs.Mode{faultfs.ErrOp, faultfs.ShortWrite} {
		modeName := map[faultfs.Mode]string{faultfs.ErrOp: "errop", faultfs.ShortWrite: "shortwrite"}[mode]
		for i := int64(1); i <= total; i++ {
			i, mode := i, mode
			t.Run(fmt.Sprintf("%s/op%03d", modeName, i), func(t *testing.T) {
				dir := t.TempDir() + "/db"
				db, err := core.LoadXML(dir, strings.NewReader(ingestCrashDoc), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				ffs := faultfs.New(vfs.OS)
				ffs.FailAt(i, mode)
				werr := ingestCrashWorkload(dir, ffs)
				if !ffs.Crashed() {
					t.Fatalf("fault at op %d never fired (workload err: %v)", i, werr)
				}
				if werr == nil {
					t.Fatalf("ingest workload survived a crash at op %d", i)
				}

				re, err := core.Open(dir, nil)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", i, err)
				}
				defer re.Close()
				res := re.Verify(true)
				for _, is := range res.Issues {
					t.Errorf("verify after crash at op %d: %s", i, is)
				}
				e := re.Epoch()
				want, ok := wantNodes[e]
				if !ok {
					t.Fatalf("epoch %d after crash at op %d; want within [%d, %d]", e, i, baseEpoch, baseEpoch+crashBatches)
				}
				if n := re.NodeCount(); n != want {
					t.Errorf("epoch %d with node count %d after crash at op %d; want %d — recovery landed between batch boundaries", e, n, i, want)
				}
				// Synopsis and store must agree: the synopsis belongs to the
				// recovered epoch and describes exactly its nodes.
				syn := re.Synopsis()
				if syn == nil {
					t.Fatalf("no synopsis after crash at op %d", i)
				}
				if syn.Epoch != re.Epoch() {
					t.Errorf("synopsis epoch %d for store epoch %d after crash at op %d", syn.Epoch, e, i)
				}
				if syn.TotalNodes != re.NodeCount() {
					t.Errorf("synopsis claims %d nodes, store has %d, after crash at op %d", syn.TotalNodes, re.NodeCount(), i)
				}
				mi := re.MVCCInfo()
				if mi.LiveVersions != 1 || mi.OrphanPages != 0 {
					t.Errorf("MVCC state after crash at op %d: %+v", i, mi)
				}
				// The recovered store must accept new group commits.
				tgt := coreTarget{re}
				if err := tgt.InsertBatch("0", [][]byte{[]byte(`<doc n="after"/>`)}); err != nil {
					t.Errorf("batch insert after recovery from crash at op %d: %v", i, err)
				} else if got := re.Epoch(); got != e+1 {
					t.Errorf("epoch %d after post-recovery batch, want %d", got, e+1)
				}
			})
		}
	}
}
