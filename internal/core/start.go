package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"nok/internal/dewey"
	"nok/internal/pattern"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// Strategy selects how starting points for NoK pattern matching are
// located (§3 lists the three options; §6.2 describes the heuristic).
type Strategy uint8

const (
	// StrategyAuto asks the cost-based planner; with the planner disabled
	// (QueryOptions.DisablePlanner) it applies the paper's heuristic: use the
	// value index when an (equality) value constraint exists, otherwise the
	// tag-name index when the most selective tag is selective enough,
	// otherwise scan.
	StrategyAuto Strategy = iota
	// StrategyScan traverses the whole subject tree in document order.
	StrategyScan
	// StrategyTagIndex looks starting points up in the tag-name B+ tree.
	StrategyTagIndex
	// StrategyValueIndex locates candidates through the value B+ tree and
	// maps them to NoK-root ancestors via Dewey IDs.
	StrategyValueIndex
	// StrategyPathIndex locates candidates through the path index — the
	// paper's §8 extension. Only applicable to anchored '/'-rooted chains
	// with concrete tags; elsewhere it degrades to StrategyAuto.
	StrategyPathIndex
	// StrategySkipped is never requested: it is recorded in QueryStats for
	// a partition whose matching was short-circuited because a linked child
	// partition had no matches (so this partition cannot match either).
	StrategySkipped
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyScan:
		return "scan"
	case StrategyTagIndex:
		return "tag-index"
	case StrategyValueIndex:
		return "value-index"
	case StrategyPathIndex:
		return "path-index"
	case StrategySkipped:
		return "skipped"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// scanThresholdDiv controls the §6.2 "high selectivity" cutoff: the tag
// index is used when the best tag's node count is below NodeCount/scanThresholdDiv,
// otherwise a sequential scan wins (index lookups cost random I/O per hit).
const scanThresholdDiv = 8

// selectivityCountCutoff caps the work spent counting value-index entries
// when choosing the most selective value constraint.
const selectivityCountCutoff = 4096

// btPages adapts a NavCounters to the btree counted variants' page
// pointer: B+-tree pages read while locating starting points count as
// examined pages of the owning query.
func btPages(nc *stree.NavCounters) *uint64 {
	if nc == nil {
		return nil
	}
	return &nc.Examined
}

// starts computes the starting points for one NoK tree using the given
// strategy, returning the points in document order along with the strategy
// actually used — when a forced strategy is inapplicable (no concrete tag,
// no equality constraint) the *effective* fallback is reported, not the
// request. The NoK tree's root must not be the virtual root (the evaluator
// handles that partition itself).
func (db *Snapshot) starts(nt *pattern.NoKTree, strat Strategy, nc *stree.NavCounters) ([]Match, Strategy, error) {
	switch strat {
	case StrategyScan:
		ms, err := db.startsByScan(nt, nc)
		return ms, StrategyScan, err
	case StrategyTagIndex:
		node, _, ok := db.mostSelectiveTag(nt)
		if !ok {
			// Every node is a wildcard: nothing to look up, degrade to scan.
			ms, err := db.startsByScan(nt, nc)
			return ms, StrategyScan, err
		}
		ms, err := db.startsFromTagNode(nt, node, nc)
		return ms, StrategyTagIndex, err
	case StrategyValueIndex:
		vn, ok := db.bestValueConstraint(nt)
		if !ok {
			// No equality constraint: the hash index is unusable; degrade to
			// the tag strategy (which may itself degrade to scan).
			return db.starts(nt, StrategyTagIndex, nc)
		}
		ms, err := db.startsFromValueNode(nt, vn, nc)
		return ms, StrategyValueIndex, err
	default:
		// StrategyAuto, and StrategyPathIndex outside an anchored chain
		// (the path of a '//'-rooted partition is not fixed).
		return db.startsAuto(nt, nc)
	}
}

// startsAuto implements the paper's heuristic: "whenever there are value
// constraints, we always use the value index... If there are more than one
// value constraints, the most selective one is used. If there are no value
// constraints, we pick the tag name which has the highest selectivity;
// if the selectivity is high we use the tag-name index, otherwise a
// sequential scan."
func (db *Snapshot) startsAuto(nt *pattern.NoKTree, nc *stree.NavCounters) ([]Match, Strategy, error) {
	if vn, ok := db.bestValueConstraint(nt); ok {
		ms, err := db.startsFromValueNode(nt, vn, nc)
		return ms, StrategyValueIndex, err
	}
	node, count, ok := db.mostSelectiveTag(nt)
	if ok && count <= db.syn.TotalNodes/scanThresholdDiv {
		ms, err := db.startsFromTagNode(nt, node, nc)
		return ms, StrategyTagIndex, err
	}
	ms, err := db.startsByScan(nt, nc)
	return ms, StrategyScan, err
}

// startsByScan is the naïve strategy: traverse the subject tree and try
// every node whose tag matches the NoK root.
func (db *Snapshot) startsByScan(nt *pattern.NoKTree, nc *stree.NavCounters) ([]Match, error) {
	root := nt.Root
	wild := root.Test == "*"
	var want symtab.Sym
	if !wild {
		sym, ok := db.Tags.Lookup(root.Test)
		if !ok {
			return nil, nil
		}
		want = sym
	}
	var out []Match
	err := db.Tree.ScanCounted(func(pos stree.Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		if wild || sym == want {
			out = append(out, Match{Pos: pos, ID: id.Clone()})
		}
		return true
	}, nc)
	return out, err
}

// mostSelectiveTag picks the NoK-tree node with a concrete tag whose
// document-wide node count is smallest (free lookup in the statistics
// synopsis).
func (db *Snapshot) mostSelectiveTag(nt *pattern.NoKTree) (depthNode, uint64, bool) {
	best := depthNode{}
	var bestCount uint64
	found := false
	var rec func(n *pattern.Node, d int)
	rec = func(n *pattern.Node, d int) {
		if !n.IsVirtualRoot() && n.Test != "*" {
			if sym, ok := db.Tags.Lookup(n.Test); ok {
				if c := db.syn.TagCount(sym); !found || c < bestCount {
					best = depthNode{node: n, depth: d, sym: sym}
					bestCount = c
					found = true
				}
			} else {
				// Tag absent from the document: no match is possible at
				// all; report it as an unbeatable zero-count choice.
				best = depthNode{node: n, depth: d, sym: 0, impossible: true}
				bestCount = 0
				found = true
			}
		}
		for _, c := range pattern.LocalChildren(n) {
			rec(c, d+1)
		}
	}
	rec(nt.Root, 0)
	return best, bestCount, found
}

type depthNode struct {
	node       *pattern.Node
	depth      int
	sym        symtab.Sym
	impossible bool
}

// sortStarts puts lifted starting points in document order and drops
// duplicates. Index entries are scanned in *driving-node* Dewey order,
// which is not document order of their lifted ancestors (child 0.2.5.1
// sorts before 0.2.9, but ancestor 0.2.5 sorts after 0.2), and a
// fixed-depth lift can surface the same ancestor non-adjacently (0.2.1,
// 0.2.1.3, 0.2.2 lift at depth 1 to 0.2, 0.2.1, 0.2). Downstream
// structural joins binary-search these lists, so order and uniqueness are
// correctness requirements, not cosmetics.
func sortStarts(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool { return dewey.Compare(ms[i].ID, ms[j].ID) < 0 })
	out := ms[:0]
	for _, m := range ms {
		if len(out) > 0 && dewey.Compare(out[len(out)-1].ID, m.ID) == 0 {
			continue
		}
		out = append(out, m)
	}
	return out
}

// startsFromTagNode scans the tag index for dn's symbol and lifts each hit
// to its depth-dn ancestor — the NoK-root candidate.
func (db *Snapshot) startsFromTagNode(nt *pattern.NoKTree, dn depthNode, nc *stree.NavCounters) ([]Match, error) {
	if dn.impossible {
		return nil, nil
	}
	var prefix [2]byte
	binary.BigEndian.PutUint16(prefix[:], uint16(dn.sym))
	var out []Match
	var lastAncestor []byte
	err := db.TagIdx.ScanPrefixCounted(prefix[:], func(key, value []byte) bool {
		id, err := dewey.FromBytes(key[2:])
		if err != nil || len(id) < dn.depth+1 {
			return true
		}
		anc := id[:len(id)-dn.depth]
		ancBytes := anc.Bytes()
		if bytes.Equal(ancBytes, lastAncestor) {
			return true // duplicate ancestor (two hits in one subtree)
		}
		lastAncestor = append(lastAncestor[:0], ancBytes...)
		m, ok := db.liftToAncestor(nt, anc, dn.depth, value, nc)
		if ok {
			out = append(out, m)
		}
		return true
	}, btPages(nc))
	if err != nil {
		return nil, err
	}
	return sortStarts(out), nil
}

// bestValueConstraint returns the most selective equality-value node of
// the NoK tree. Inequality constraints cannot use the hash index.
func (db *Snapshot) bestValueConstraint(nt *pattern.NoKTree) (pattern.ValueNode, bool) {
	var best pattern.ValueNode
	bestCount := -1
	for _, vn := range nt.ValueConstrained() {
		if vn.Node.Cmp != pattern.CmpEq {
			continue
		}
		c := db.countValueEntries(vn.Node.Literal)
		if bestCount < 0 || c < bestCount {
			best, bestCount = vn, c
		}
	}
	return best, bestCount >= 0
}

// countValueEntries counts value-index entries for a literal, capped at
// selectivityCountCutoff.
func (db *Snapshot) countValueEntries(literal string) int {
	var prefix [8]byte
	binary.BigEndian.PutUint64(prefix[:], vstore.Hash([]byte(literal)))
	n := 0
	_ = db.ValIdx.ScanPrefix(prefix[:], func(_, _ []byte) bool {
		n++
		return n < selectivityCountCutoff
	})
	return n
}

// startsFromValueNode scans the value index for hash(literal), verifies
// the literal against the data file (hash collisions), and lifts hits to
// their NoK-root ancestors.
func (db *Snapshot) startsFromValueNode(nt *pattern.NoKTree, vn pattern.ValueNode, nc *stree.NavCounters) ([]Match, error) {
	var prefix [8]byte
	binary.BigEndian.PutUint64(prefix[:], vstore.Hash([]byte(vn.Node.Literal)))
	var out []Match
	var lastAncestor []byte
	var scanErr error
	err := db.ValIdx.ScanPrefixCounted(prefix[:], func(key, value []byte) bool {
		id, err := dewey.FromBytes(key[8:])
		if err != nil || len(id) < vn.Depth+1 {
			return true
		}
		// Verify the actual value: "Different values that are hashed to
		// the same key can be distinguished by looking up the data file."
		val, hasVal, err := db.nodeValueCounted(id, nc)
		if err != nil {
			scanErr = err
			return false
		}
		if !hasVal || val != vn.Node.Literal {
			return true
		}
		anc := id[:len(id)-vn.Depth]
		ancBytes := anc.Bytes()
		if bytes.Equal(ancBytes, lastAncestor) {
			return true
		}
		lastAncestor = append(lastAncestor[:0], ancBytes...)
		m, ok := db.liftToAncestor(nt, anc, vn.Depth, nil, nc)
		if ok {
			out = append(out, m)
		}
		return true
	}, btPages(nc))
	if scanErr != nil {
		return nil, scanErr
	}
	if err != nil {
		return nil, err
	}
	return sortStarts(out), nil
}

// liftToAncestor resolves the ancestor Dewey ID to a physical position and
// pre-filters it against the NoK root's tag test. directPos carries the
// position when depth is 0 and the index entry already holds it.
func (db *Snapshot) liftToAncestor(nt *pattern.NoKTree, anc dewey.ID, depth int, directPos []byte, nc *stree.NavCounters) (Match, bool) {
	var pos stree.Pos
	if depth == 0 && len(directPos) >= 6 {
		p, err := decodePos(directPos)
		if err != nil {
			return Match{}, false
		}
		pos = p
	} else {
		p, _, found, err := db.nodeAtCounted(anc, nc)
		if err != nil || !found {
			return Match{}, false
		}
		pos = p
	}
	root := nt.Root
	if root.Test != "*" {
		nc.AddExamined(1) // SymAt touches one tree page
		sym, err := db.Tree.SymAt(pos)
		if err != nil {
			return Match{}, false
		}
		want, ok := db.Tags.Lookup(root.Test)
		if !ok || sym != want {
			return Match{}, false
		}
	}
	return Match{Pos: pos, ID: anc.Clone()}, true
}
