package core

import (
	"math/rand"
	"strings"
	"testing"

	"nok/internal/domnav"
	"nok/internal/samples"
	"nok/internal/symtab"
)

// TestPlannerGolden pins the rendered plans for the bundled bibliography:
// the cost model's choices on a known document must not drift silently.
// The document fits one 256-byte tree page, so full scans legitimately win
// most contests here (the planner's index picks are exercised on larger
// documents below and in internal/planner's unit tests).
func TestPlannerGolden(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	goldens := map[string]string{
		`/bib/book`: "plan /bib/book (stats epoch 1, anchored)\n" +
			"  partition 0: scan        tag=book  est starts=4 matches=4 pages=9\n" +
			"  est total: pages=9 rows=4\n",
		samples.PaperQuery: "plan //book[author/last=\"Stevens\"][price<100] (stats epoch 1)\n" +
			"  partition 0: scan        virtual-root navigation  est starts=1 matches=1 pages=0\n" +
			"  partition 1: scan        tag=book  est starts=4 matches=0 pages=5\n" +
			"  bottom-up order: [1]\n" +
			"  est total: pages=5 rows=0\n",
		`//book[author][editor]`: "plan //book[author][editor] (stats epoch 1)\n" +
			"  partition 0: scan        virtual-root navigation  est starts=1 matches=1 pages=0\n" +
			"  partition 1: tag-index   tag=editor depth=1  est starts=1 matches=1 pages=3\n" +
			"  bottom-up order: [1]\n" +
			"  est total: pages=3 rows=1\n",
		`//missing`: "plan //missing (stats epoch 1)\n" +
			"  partition 0: scan        virtual-root navigation  est starts=1 matches=1 pages=0\n" +
			"  partition 1: scan        tag=missing  est starts=0 matches=0 pages=1\n" +
			"  bottom-up order: [1]\n" +
			"  est total: pages=1 rows=0\n",
	}
	for expr, want := range goldens {
		got, err := db.PlanText(expr)
		if err != nil {
			t.Fatalf("PlanText(%q): %v", expr, err)
		}
		if got != want {
			t.Errorf("plan for %s drifted:\n got:\n%s want:\n%s", expr, got, want)
		}
	}
}

// trapValueDoc is a document where the §6.2 heuristic picks badly: the only
// equality literal is very common, but the partition's root tag is rare.
// The heuristic always prefers the value index when an equality constraint
// exists; the planner sees that driving from the rare tag is far cheaper.
func trapValueDoc(items int) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < items; i++ {
		sb.WriteString("<item><common>dup</common></item>")
	}
	sb.WriteString("<rare><common>dup</common></rare>")
	sb.WriteString("<rare><common>dup</common></rare>")
	sb.WriteString("</root>")
	return sb.String()
}

// trapPathDoc pairs a common literal with a selective anchored path: books
// titled "T" are everywhere, but /lib/special/book holds only two of them.
func trapPathDoc(books int) string {
	var sb strings.Builder
	sb.WriteString("<lib><shelf>")
	for i := 0; i < books; i++ {
		sb.WriteString("<book><title>T</title></book>")
	}
	sb.WriteString("</shelf><special>")
	sb.WriteString("<book><title>T</title></book>")
	sb.WriteString("<book><title>T</title></book>")
	sb.WriteString("</special></lib>")
	return sb.String()
}

// TestPlannerPagesReduction is the headline acceptance check: on queries
// where the heuristic picks a poor access path, the planner must cut
// PagesScanned at least in half while returning identical results.
func TestPlannerPagesReduction(t *testing.T) {
	cases := []struct {
		name string
		xml  string
		expr string
	}{
		{"common literal, rare tag", trapValueDoc(400), `//rare[common="dup"]`},
		{"common literal, selective path", trapPathDoc(400), `/lib/special/book[title="T"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := loadDB(t, tc.xml, smallPages())

			planned, pStats, err := db.Query(tc.expr, nil)
			if err != nil {
				t.Fatal(err)
			}
			heuristic, hStats, err := db.Query(tc.expr, &QueryOptions{DisablePlanner: true})
			if err != nil {
				t.Fatal(err)
			}

			if !pStats.Planned || hStats.Planned {
				t.Fatalf("planner flags: planned=%v heuristic=%v", pStats.Planned, hStats.Planned)
			}
			if len(planned) != len(heuristic) {
				t.Fatalf("results differ: %d planned vs %d heuristic", len(planned), len(heuristic))
			}
			for i := range planned {
				if planned[i].ID.String() != heuristic[i].ID.String() {
					t.Fatalf("result %d differs: %v vs %v", i, planned[i].ID, heuristic[i].ID)
				}
			}
			if pStats.PagesScanned*2 > hStats.PagesScanned {
				t.Errorf("planner scanned %d pages, heuristic %d: want at least a 2x reduction\nplanner strategies: %v\nheuristic strategies: %v",
					pStats.PagesScanned, hStats.PagesScanned, pStats.StrategyUsed, hStats.StrategyUsed)
			}
		})
	}
}

// TestPlannerOracleRandom is the planner's correctness property: on random
// documents and queries, plans must return byte-identical results to a
// forced full scan (and to the DOM oracle).
func TestPlannerOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8200405)) // distinct from TestRandomDifferential
	plannedOnce := false
	for docTrial := 0; docTrial < 3; docTrial++ {
		xml := randomXML(rng, 200+rng.Intn(400))
		db := loadDB(t, xml, smallPages())
		doc := domnav.MustParse(xml)
		for q := 0; q < 40; q++ {
			expr := randomQuery(rng)
			_, stats, err := db.Query(expr, nil)
			if err != nil {
				t.Fatalf("Query(%q): %v", expr, err)
			}
			plannedOnce = plannedOnce || stats.Planned
			got := queryIDs(t, db, expr, nil)
			scan := queryIDs(t, db, expr, &QueryOptions{Strategy: StrategyScan})
			if !sameIDs(got, scan) {
				t.Fatalf("doc %d query %q: planner %v, scan %v\n(xml: %.400s)", docTrial, expr, got, scan, xml)
			}
			if want := oracleIDs(t, doc, expr); !sameIDs(got, want) {
				t.Fatalf("doc %d query %q: planner %v, oracle %v", docTrial, expr, got, want)
			}
		}
	}
	if !plannedOnce {
		t.Error("no query was cost-planned: the property test never exercised the planner")
	}
}

// TestSynopsisAcrossUpdates: every committed update rebuilds the synopsis at
// the new epoch, so the planner stays available and plans are re-costed.
func TestSynopsisAcrossUpdates(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	_, st, err := db.Query(`//book[author]`, nil)
	if err != nil || !st.Planned || st.PlanEpoch != db.Epoch() {
		t.Fatalf("before update: err=%v planned=%v epoch=%d/%d", err, st.Planned, st.PlanEpoch, db.Epoch())
	}

	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader(
		`<book year="2024"><title>Planner Book</title><author><last>Doe</last><first>J.</first></author><price>10</price></book>`)); err != nil {
		t.Fatalf("InsertFragment: %v", err)
	}
	if db.Synopsis().Epoch != db.Epoch() {
		t.Fatalf("synopsis epoch %d after insert, store %d", db.Synopsis().Epoch, db.Epoch())
	}
	ms, st, err := db.Query(`//book[author]`, nil)
	if err != nil || !st.Planned || st.PlanEpoch != db.Epoch() {
		t.Fatalf("after insert: err=%v planned=%v epoch=%d/%d", err, st.Planned, st.PlanEpoch, db.Epoch())
	}
	if len(ms) != 4 {
		t.Fatalf("results after insert: %d, want 4", len(ms))
	}
	if got := db.Synopsis().TagCount(mustSym(t, db, "book")); got != 5 {
		t.Errorf("synopsis book count after insert = %d, want 5", got)
	}

	if err := db.DeleteSubtree(ms[len(ms)-1].ID); err != nil {
		t.Fatalf("DeleteSubtree: %v", err)
	}
	if db.Synopsis().Epoch != db.Epoch() {
		t.Fatalf("synopsis epoch %d after delete, store %d", db.Synopsis().Epoch, db.Epoch())
	}
	if _, st, err = db.Query(`//book[author]`, nil); err != nil || !st.Planned {
		t.Fatalf("after delete: err=%v planned=%v", err, st.Planned)
	}
}

func mustSym(t *testing.T, db *DB, name string) symtab.Sym {
	t.Helper()
	sym, ok := db.Tags.Lookup(name)
	if !ok {
		t.Fatalf("tag %q unknown", name)
	}
	return sym
}

// TestStrategySkippedShortCircuit: a provably empty linked child partition
// short-circuits its parents, which record StrategySkipped.
func TestStrategySkippedShortCircuit(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	ms, st, err := db.Query(`//book[.//missing]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("results: %v, want none", ms)
	}
	if !st.Planned {
		t.Fatal("query was not planned")
	}
	found := false
	for _, s := range st.StrategyUsed {
		if s == StrategySkipped {
			found = true
		}
	}
	if !found {
		t.Errorf("no partition recorded StrategySkipped: %v", st.StrategyUsed)
	}
}
