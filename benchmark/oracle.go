package main

// oracle.go — what the right answers are. Every dataset is parsed once
// with internal/domnav, the repo's reference evaluator, and the expected
// result count of every query is recorded at set-up; after ingest the
// same documents are appended to the XML text and the DOM is rebuilt, so
// the store's node count and answers are checked against a model that
// received exactly the acknowledged writes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"nok/internal/datagen"
	"nok/internal/domnav"
	"nok/internal/pattern"
	"nok/internal/workload"
)

// query is one request of a read mix with its oracle count.
type query struct {
	Dataset string // "dblp", "treebank"
	Class   string // Q1..Q12
	Expr    string
	Want    int
	URL     string // base URL of the server that answers it
}

// classQueries returns the dataset's non-NA queries for the given classes.
func classQueries(dataset string, from, to int) ([]query, error) {
	all, err := workload.ForDataset(dataset)
	if err != nil {
		return nil, err
	}
	var out []query
	for i, q := range all {
		if n := i + 1; n >= from && n <= to && !q.NA() {
			out = append(out, query{Dataset: dataset, Class: q.Category.ID, Expr: q.Expr})
		}
	}
	return out, nil
}

func parseDOMFile(path string) (*domnav.Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return domnav.Parse(f)
}

func domCount(doc *domnav.Doc, expr string) (int, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return 0, err
	}
	return len(domnav.Evaluate(doc, t)), nil
}

// fillWants records the oracle count of every query against doc.
func fillWants(doc *domnav.Doc, qs []query, url string) error {
	for i := range qs {
		n, err := domCount(doc, qs[i].Expr)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", qs[i].Expr, err)
		}
		if n == 0 {
			return fmt.Errorf("oracle %s: no results; the workload needs non-empty answers", qs[i].Expr)
		}
		qs[i].Want, qs[i].URL = n, url
	}
	return nil
}

// docsPerCommit is the size of one durable POST /ingest.
const docsPerCommit = 100

var (
	genFirst   = []string{"Ada", "Alan", "Barbara", "Edsger", "Grace", "Leslie", "Tony", "Jim"}
	genLast    = []string{"Lovelace", "Turing", "Liskov", "Dijkstra", "Hopper", "Lamport", "Hoare", "Gray"}
	genWords   = []string{"succinct", "storage", "path", "query", "index", "tree", "page", "join", "stream", "update"}
	genJournal = []string{"TODS", "VLDB Journal", "SIGMOD Record", "TKDE"}
)

// genBatch generates one commit's worth of <article> documents. Every
// eighth carries the low-selectivity author needle so the recounted
// oracle queries see the batch; none carries the high or moderate needles,
// so the reader's expected counts hold while commits land.
func genBatch(rng *rand.Rand, batch int) [][]byte {
	docs := make([][]byte, docsPerCommit)
	for i := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, `<article key="bench/%d/%d" mdate="2004-0%d-1%d">`, batch, i, 1+rng.Intn(9), rng.Intn(9))
		for a, n := 0, 1+rng.Intn(3); a < n; a++ {
			name := genFirst[rng.Intn(len(genFirst))] + " " + genLast[rng.Intn(len(genLast))]
			if a == 0 && i%8 == 0 {
				name = datagen.NeedleLow
			}
			fmt.Fprintf(&b, "<author>%s</author>", name)
		}
		b.WriteString("<title>")
		for w := 0; w < 5; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(genWords[rng.Intn(len(genWords))])
		}
		fmt.Fprintf(&b, "</title><year>%d</year><journal>%s</journal><volume>%d</volume><pages>%d-%d</pages></article>",
			1975+rng.Intn(50), genJournal[rng.Intn(len(genJournal))], 1+rng.Intn(40), rng.Intn(400), 400+rng.Intn(400))
		docs[i] = b.Bytes()
	}
	return docs
}

// appendedDOM parses a dblp dataset's XML with docs spliced in as new last
// children of the root — the model of a store that committed them all.
func appendedDOM(xmlPath string, batches [][][]byte) (*domnav.Doc, error) {
	base, err := os.ReadFile(xmlPath)
	if err != nil {
		return nil, err
	}
	closing := []byte("</dblp>")
	at := bytes.LastIndex(base, closing)
	if at < 0 {
		return nil, fmt.Errorf("%s: no %s", xmlPath, closing)
	}
	var b bytes.Buffer
	b.Write(base[:at])
	for _, docs := range batches {
		for _, d := range docs {
			b.Write(d)
		}
	}
	b.Write(closing)
	return domnav.Parse(&b)
}
