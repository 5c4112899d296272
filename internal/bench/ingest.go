package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/ingest"
)

// ---- Group-commit ingest throughput ------------------------------------------

// IngestResult compares streamed group-commit ingest against per-document
// Insert calls at equal durability (both sides run the same COW commit
// path: every commit flushes and renames the manifest). It also audits the
// incremental-synopsis claim: across the whole streamed load, every
// concurrent auto-strategy query must be cost-planned, and the final
// synopsis must belong to the final epoch.
type IngestResult struct {
	Docs       int     // documents streamed through the pipeline
	GroupSecs  float64 // wall time for the streamed load
	GroupRate  float64 // documents/second, group commit
	Batches    uint64  // group commits executed
	Epochs     uint64  // MVCC epochs published by the streamed load
	SingleDocs int     // documents in the per-Insert sample
	SingleSecs float64 // wall time for the per-Insert sample
	SingleRate float64 // documents/second, one commit per document
	Speedup    float64 // GroupRate / SingleRate

	SynopsisEpoch uint64 // epoch of the final committed synopsis
	FinalEpoch    uint64 // final store epoch
	Unplanned     int    // raced queries the planner did not plan
	Queries       int    // auto-strategy queries raced against the stream
}

// SynopsisOK is the synopsis gate: the final synopsis is the final
// epoch's and every raced query was cost-planned.
func (r *IngestResult) SynopsisOK() bool {
	return r.SynopsisEpoch == r.FinalEpoch && r.Unplanned == 0
}

// IngestSpeedupMin is the acceptance budget: the group-commit pipeline
// must move documents at least this many times faster than per-document
// Insert commits.
const IngestSpeedupMin = 5.0

func ingestDoc(i int) string {
	return fmt.Sprintf("<book><title>g%d</title><author><last>A%d</last></author><price>%d</price></book>",
		i, i%37, i%97)
}

// ingestTarget adapts *core.DB to the pipeline (the bench package works on
// the core layer, like the MVCC experiment).
type ingestTarget struct{ db *core.DB }

func (t ingestTarget) InsertBatch(parentID string, frags [][]byte) error {
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

func (t ingestTarget) Epoch() uint64 { return t.db.Epoch() }

// Ingest runs the experiment: a per-Insert baseline sample, then the full
// streamed load with planned queries racing the pipeline.
func Ingest(cfg Config) (*IngestResult, error) {
	cfg = cfg.WithDefaults()
	docs := 10000 * cfg.Scale
	// The per-Insert baseline pays one full commit (fsync + index rebuild
	// over the whole tree) per document, so it is sampled, not run for all
	// docs — and the sample runs on the smaller store, which biases the
	// baseline FASTER and the measured speedup low.
	sample := 250
	if docs < sample {
		sample = docs
	}
	res := &IngestResult{Docs: docs, SingleDocs: sample}

	tmp, err := os.MkdirTemp("", "nok-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Baseline: one commit per document.
	single, err := core.LoadXML(tmp+"/single", strings.NewReader("<lib></lib>"), &core.Options{PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	defer single.Close()
	t0 := time.Now()
	for i := 0; i < sample; i++ {
		if err := single.InsertFragment(dewey.Root(), strings.NewReader(ingestDoc(i))); err != nil {
			return nil, fmt.Errorf("per-insert baseline: %w", err)
		}
	}
	res.SingleSecs = time.Since(t0).Seconds()
	res.SingleRate = float64(sample) / res.SingleSecs

	// Streamed load: the same documents through the group-commit pipeline,
	// with auto-strategy queries racing it; each must come back planned.
	st, err := core.LoadXML(tmp+"/group", strings.NewReader("<lib></lib>"), &core.Options{PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	epoch0 := st.Epoch()

	var feed strings.Builder
	for i := 0; i < docs; i++ {
		feed.WriteString(ingestDoc(i))
	}

	p := ingest.NewPipeline(ingestTarget{st}, ingest.Options{})
	stop := make(chan struct{})
	qdone := make(chan error, 1)
	go func() {
		n, unplanned := 0, 0
		var qerr error
		for {
			select {
			case <-stop:
				res.Queries, res.Unplanned = n, unplanned
				qdone <- qerr
				return
			default:
			}
			_, qs, err := st.Query(`//book[price<10]`, nil)
			if err != nil {
				if qerr == nil {
					qerr = err
				}
			} else if !qs.Planned {
				unplanned++
			}
			n++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	t0 = time.Now()
	sp := ingest.NewSplitter(strings.NewReader(feed.String()))
	for {
		doc, err := sp.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			close(stop)
			<-qdone
			return nil, err
		}
		for {
			err := p.Submit(doc)
			if err == nil {
				break
			}
			var bp *ingest.BackpressureError
			if !errors.As(err, &bp) {
				close(stop)
				<-qdone
				return nil, err
			}
			time.Sleep(bp.RetryAfter)
		}
	}
	if err := p.Close(); err != nil {
		close(stop)
		<-qdone
		return nil, err
	}
	res.GroupSecs = time.Since(t0).Seconds()
	close(stop)
	if err := <-qdone; err != nil {
		return nil, fmt.Errorf("racing query: %w", err)
	}

	stats := p.Stats()
	if stats.Docs != uint64(docs) || stats.Rejected != 0 {
		return nil, fmt.Errorf("pipeline committed %d/%d docs (%d rejected)", stats.Docs, docs, stats.Rejected)
	}
	res.GroupRate = float64(docs) / res.GroupSecs
	res.Batches = stats.Batches
	res.Epochs = st.Epoch() - epoch0
	res.Speedup = res.GroupRate / res.SingleRate
	res.SynopsisEpoch = st.Synopsis().Epoch
	res.FinalEpoch = st.Epoch()
	return res, nil
}

// WriteIngest renders the experiment with its two gates: the ≥5× speedup
// and the synopsis audit.
func WriteIngest(w io.Writer, res *IngestResult) {
	fmt.Fprintf(w, "%-34s %10s %12s %10s\n", "mode", "docs", "wall(s)", "docs/s")
	fmt.Fprintf(w, "%-34s %10d %12.3f %10.0f\n", "per-document Insert (1 epoch/doc)", res.SingleDocs, res.SingleSecs, res.SingleRate)
	fmt.Fprintf(w, "%-34s %10d %12.3f %10.0f\n",
		fmt.Sprintf("group commit (%d epochs)", res.Epochs), res.Docs, res.GroupSecs, res.GroupRate)
	verdict := "PASS"
	if res.Speedup < IngestSpeedupMin {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "speedup: %.1fx  (budget >=%.0fx, %d batches) %s\n",
		res.Speedup, IngestSpeedupMin, res.Batches, verdict)
	synVerdict := "PASS"
	if !res.SynopsisOK() {
		synVerdict = "FAIL"
	}
	fmt.Fprintf(w, "synopsis: epoch %d at store epoch %d, %d unplanned of %d raced queries (budget: same epoch, 0 unplanned) %s\n",
		res.SynopsisEpoch, res.FinalEpoch, res.Unplanned, res.Queries, synVerdict)
}
