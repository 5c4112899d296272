package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// parallelFixture builds a document big enough (at 256-byte pages) that
// the planner's EstTotalPages clears ParallelPageThreshold, with queries
// whose pattern trees partition into several independent NoK subtrees.
func parallelFixture(t *testing.T) *DB {
	t.Helper()
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b,
			"<book year=\"%d\"><title>t%d</title><author><last>a%d</last></author><price>%d</price><publisher>p%d</publisher></book>",
			1990+i%30, i, i%40, i%150, i%7)
	}
	b.WriteString("</lib>")
	return loadDB(t, b.String(), smallPages())
}

var parallelQueries = []string{
	// Three global links off //book: author-subtree, price, publisher.
	`//book[author//last="a3"][.//price<50]//title`,
	`//book[.//last="a1"][.//publisher="p2"]`,
	`//book[.//title="t17"][.//price=17]//last`,
	`//lib//book[.//last="a5"][.//price<10]`,
}

// TestParallelMatchesSequential pins the parallel bottom-up phase to the
// sequential one: same query, same store, byte-identical ID lists — and
// checks the parallel path actually ran (stats.Parallel), so the gate and
// the fixture stay in sync.
func TestParallelMatchesSequential(t *testing.T) {
	db := parallelFixture(t)
	ranParallel := false
	for _, expr := range parallelQueries {
		seq, _, err := db.Query(expr, &QueryOptions{DisableParallel: true})
		if err != nil {
			t.Fatalf("sequential %s: %v", expr, err)
		}
		par, stats, err := db.Query(expr, nil)
		if err != nil {
			t.Fatalf("parallel %s: %v", expr, err)
		}
		if stats.Parallel {
			ranParallel = true
			if len(stats.PartitionTimings) == 0 {
				t.Errorf("%s: parallel run recorded no partition timings", expr)
			}
		}
		if len(seq) != len(par) {
			t.Fatalf("%s: sequential %d results, parallel %d", expr, len(seq), len(par))
		}
		for i := range seq {
			if seq[i].ID.String() != par[i].ID.String() {
				t.Fatalf("%s: result %d differs: %s vs %s", expr, i, seq[i].ID, par[i].ID)
			}
		}
	}
	if !ranParallel {
		t.Fatalf("no query took the parallel path; gate or fixture out of sync")
	}
}

// TestParallelErrorPropagates cancels mid-evaluation and checks the first
// error wins and all workers join (the -race build verifies the join).
func TestParallelErrorPropagates(t *testing.T) {
	db := parallelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := db.Query(parallelQueries[0], &QueryOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled parallel query returned nil error")
	}
}
