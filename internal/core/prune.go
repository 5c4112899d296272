package core

import (
	"fmt"
	"strconv"

	"nok/internal/pattern"
	"nok/internal/vstore"
)

// ProvablyEmpty reports whether the query can be proven to return no
// results from this store using statistics alone, without touching a data
// page. The scatter-gather executor (internal/shard) asks this per shard
// to skip provably-empty shards; the returned reason feeds EXPLAIN
// ANALYZE output so the pruning is visible.
//
// Two sound proofs are used:
//
//   - A pattern tree is conjunctive — every pattern node must match some
//     subject node for any result to exist — so a concrete tag test that
//     occurs zero times in the store (per the synopsis's tag counts,
//     which are exact) proves emptiness.
//   - A count-min sketch never undercounts, so a synopsis estimate of
//     zero for an equality literal's hash proves the value is absent.
//     This is only sound for literals that do not parse as numbers:
//     numeric equality compares numerically ("100" matches a node value
//     of "100.0"), defeating hash identity.
func (db *Snapshot) ProvablyEmpty(t *pattern.Tree) (bool, string) {
	empty := false
	reason := ""
	syn := db.syn
	t.Walk(func(n *pattern.Node, _ int) {
		if empty || n.IsVirtualRoot() {
			return
		}
		if n.Test != "*" {
			sym, ok := db.Tags.Lookup(n.Test)
			if !ok || syn.TagCount(sym) == 0 {
				empty = true
				reason = fmt.Sprintf("tag %q absent", n.Test)
				return
			}
		}
		if n.Cmp == pattern.CmpEq {
			if _, err := strconv.ParseFloat(n.Literal, 64); err != nil {
				if syn.ValueEstimate(vstore.Hash([]byte(n.Literal))) == 0 {
					empty = true
					reason = fmt.Sprintf("value %q absent", n.Literal)
				}
			}
		}
	})
	return empty, reason
}
