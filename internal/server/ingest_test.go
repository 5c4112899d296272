package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nok/internal/ingest"
)

func postIngest(t *testing.T, url, body string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	hdr := resp.Header
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode, hdr
}

func TestIngestEndpoint(t *testing.T) {
	_, ts := newTestServer(t, "<lib><book><title>seed</title></book></lib>", Config{})

	// One body, many documents, one durable response.
	body := ""
	for i := 0; i < 6; i++ {
		body += fmt.Sprintf("<book><title>s%d</title><price>%d</price></book>", i, i)
	}
	var ir ingestResponse
	code, _ := postIngest(t, ts.URL+"/ingest", body, &ir)
	if code != 200 {
		t.Fatalf("ingest status %d: %+v", code, ir)
	}
	if !ir.OK || ir.Docs != 6 || !ir.Durable {
		t.Fatalf("ingest response %+v", ir)
	}
	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query?q=%2F%2Fbook", &qr); code != 200 || qr.Count != 7 {
		t.Fatalf("after ingest: status %d, %d books, want 7", code, qr.Count)
	}

	// wait=0 accepts without the durability barrier.
	code, _ = postIngest(t, ts.URL+"/ingest?wait=0", "<book><title>async</title></book>", &ir)
	if code != http.StatusAccepted || ir.Durable {
		t.Fatalf("wait=0: status %d, response %+v", code, ir)
	}

	// Malformed stream and empty body are 400s.
	var er errorResponse
	if code, _ := postIngest(t, ts.URL+"/ingest", "<book><title>x</book>", &er); code != 400 {
		t.Fatalf("malformed body: status %d", code)
	}
	if code, _ := postIngest(t, ts.URL+"/ingest", "  ", &er); code != 400 {
		t.Fatalf("empty body: status %d", code)
	}

	// The flight recorder saw the commits.
	var dr debugIngestResponse
	if code := getJSON(t, ts.URL+"/debug/ingest", &dr); code != 200 {
		t.Fatalf("debug/ingest status %d", code)
	}
	if dr.Stats.Docs < 6 || len(dr.Recent) == 0 {
		t.Fatalf("debug/ingest response: stats %+v, %d records", dr.Stats, len(dr.Recent))
	}
}

// TestIngestSharesCommits is the group-commit property at the HTTP layer:
// concurrent POST /ingest requests coalesce into far fewer epochs than
// documents.
func TestIngestSharesCommits(t *testing.T) {
	srv, ts := newTestServer(t, "<lib><book><title>seed</title></book></lib>", Config{
		Ingest: ingest.Options{BatchDocs: 64, BatchInterval: 5 * time.Millisecond},
	})
	epoch0 := srv.store.Epoch()

	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf("<book><title>c%d-%d</title></book>", c, i)
				resp, err := http.Post(ts.URL+"/ingest", "application/xml", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query?q=%2F%2Fbook", &qr); code != 200 || qr.Count != clients*perClient+1 {
		t.Fatalf("after concurrent ingest: status %d, %d books, want %d", code, qr.Count, clients*perClient+1)
	}
	commits := srv.store.Epoch() - epoch0
	if commits == 0 || commits >= clients*perClient {
		t.Fatalf("%d epochs for %d documents: group commit is not grouping", commits, clients*perClient)
	}
	t.Logf("%d documents across %d clients in %d epochs", clients*perClient, clients, commits)
}

// TestIngestBackpressure429 fills the in-flight budget and requires the
// typed refusal to surface as HTTP 429 with a Retry-After header.
func TestIngestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, "<lib></lib>", Config{
		Ingest: ingest.Options{
			// Commits never trigger on their own, so accepted bytes stay
			// pending and the second request must be refused. The budget
			// fits one filler document but not two.
			BatchDocs:     1 << 20,
			BatchInterval: time.Hour,
			MaxPending:    150,
		},
	})

	filler := "<book><title>" + strings.Repeat("x", 80) + "</title></book>"
	code, _ := postIngest(t, ts.URL+"/ingest?wait=0", filler, nil)
	if code != http.StatusAccepted {
		t.Fatalf("first ingest: status %d", code)
	}
	var er errorResponse
	code, hdr := postIngest(t, ts.URL+"/ingest?wait=0", filler, &er)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d (%+v)", code, er)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(er.Error, "backpressure") {
		t.Fatalf("429 body: %+v", er)
	}
}

// TestIngestOversizedDoc413 sends a single document larger than the whole
// in-flight budget. Submit would admit it into an empty pipeline, so the
// splitter's per-document cap must refuse it (413) before it buffers —
// otherwise one request bypasses backpressure with unbounded memory.
// POST /insert buffers its one fragment whole, so it takes the same cap.
func TestIngestOversizedDoc413(t *testing.T) {
	_, ts := newTestServer(t, "<lib></lib>", Config{
		Ingest: ingest.Options{MaxPending: 256},
	})
	huge := "<book><title>" + strings.Repeat("y", 4096) + "</title></book>"
	var er errorResponse
	code, _ := postIngest(t, ts.URL+"/ingest", huge, &er)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized document: status %d (%+v)", code, er)
	}
	if !strings.Contains(er.Error, "too large") {
		t.Fatalf("413 body: %+v", er)
	}
	resp, done := doReq(t, http.MethodPost, ts.URL+"/insert?parent=0", huge)
	done()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /insert fragment: status %d, want 413", resp.StatusCode)
	}
	// The store took nothing.
	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query?q=%2F%2Fbook", &qr); code != 200 || qr.Count != 0 {
		t.Fatalf("after 413: status %d, %d books, want 0", code, qr.Count)
	}
}
