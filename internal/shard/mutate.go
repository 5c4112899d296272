package shard

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"nok"
	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/pattern"
	"nok/internal/sax"
)

// locate maps a global Dewey ID to (shard, shard-local ID). Broadcast nodes
// (the collection root and its attributes) resolve to shard 0, where one
// replica lives; mutations special-case them before calling this.
func (st *Store) locate(id dewey.ID) (int, dewey.ID, error) {
	if len(id) <= 1 {
		return 0, id, nil
	}
	s, local, routed := st.man.globalToLocal(id[1])
	if !routed {
		return 0, id, nil
	}
	if s < 0 {
		return 0, nil, fmt.Errorf("shard: no document at root-child ordinal %d", id[1])
	}
	mapped := id.Clone()
	mapped[1] = local
	return s, mapped, nil
}

// Value returns the text content of the node with the given global Dewey ID.
func (st *Store) Value(id string) (string, bool, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return "", false, ErrClosed
	}
	did, err := dewey.Parse(id)
	if err != nil {
		return "", false, err
	}
	s, local, err := st.locate(did)
	if err != nil {
		return "", false, err
	}
	return st.shards[s].Value(local.String())
}

// Delete removes the node with the given global Dewey ID and its subtree.
// Deleting a whole document (a root child) removes it from its shard and
// renumbers the global ordinals after it, exactly as the unsharded store
// renumbers following siblings; deleting a collection-root attribute
// applies to its replica on every shard.
func (st *Store) Delete(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	did, err := dewey.Parse(id)
	if err != nil {
		return err
	}
	if len(did) <= 1 {
		return fmt.Errorf("shard: cannot delete the collection root")
	}
	g := did[1]
	if int(g) <= st.man.RootAttrs {
		if len(did) > 2 {
			return fmt.Errorf("shard: no node below attribute %s", did.String())
		}
		// Broadcast node: remove the replica on every shard, then shift the
		// global numbering down past it.
		for s, sub := range st.shards {
			if err := sub.Delete(did.String()); err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
		}
		st.man.RootAttrs--
		for _, a := range st.man.Assign {
			for i := range a {
				a[i]--
			}
		}
		return saveManifest(st.dir, st.man)
	}

	s, local, err := st.locate(did)
	if err != nil {
		return err
	}
	if err := st.shards[s].Delete(local.String()); err != nil {
		return err
	}
	if len(did) == 2 {
		// A whole document went away: drop it from the assignment and
		// renumber every later document down by one.
		a := st.man.Assign[s]
		k := int(local[1]) - st.man.RootAttrs - 1
		st.man.Assign[s] = append(a[:k], a[k+1:]...)
		for _, a := range st.man.Assign {
			for i := range a {
				if a[i] > g {
					a[i]--
				}
			}
		}
		return saveManifest(st.dir, st.man)
	}
	return nil
}

// maxGlobal returns the largest assigned global root-child ordinal (or the
// last broadcast ordinal when no documents exist).
func (st *Store) maxGlobal() uint32 {
	m := uint32(st.man.RootAttrs)
	for _, a := range st.man.Assign {
		if len(a) > 0 && a[len(a)-1] > m {
			m = a[len(a)-1]
		}
	}
	return m
}

// validateFragment deep-parses a fragment — well-formed XML, exactly one
// root element — and names its root. InsertBatch runs it over the whole
// batch before any backend is called: catching every
// document-attributable failure up front is what keeps its
// *FragmentError retry-safe, because by the time shards start
// committing, the only errors left are store-level and fatal.
func validateFragment(buf []byte) (string, error) {
	sc := sax.NewScanner(bytes.NewReader(buf))
	root := ""
	depth := 0
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			// The scanner errors on EOF inside an open element, so a clean
			// EOF means everything opened was closed.
			if root == "" {
				return "", fmt.Errorf("shard: fragment has no root element")
			}
			return root, nil
		}
		if err != nil {
			return "", err
		}
		switch ev.Kind {
		case sax.StartElement:
			if depth == 0 {
				if root != "" {
					return "", fmt.Errorf("shard: fragment must have a single root element")
				}
				root = ev.Name
			}
			depth++
		case sax.EndElement:
			depth--
		}
	}
}

// ProvablyEmpty answers conservatively (false): the collection prunes per
// shard inside every scatter, so a coordinator served behind /scatter
// evaluates and lets its members prune.
func (st *Store) ProvablyEmpty(string) (bool, string, error) { return false, "", nil }

// CacheFingerprint identifies exactly the state a cached result for expr
// depends on: the (shard, epoch) pairs of the shards that would
// participate in evaluating it right now. Epochs only advance on committed
// mutations, and a mutation on a shard the query is pruned from leaves the
// fingerprint unchanged, so cached results for unrelated shards survive
// writes elsewhere. Each shard is judged on a pinned snapshot, so the
// pruning decision and the epoch it is keyed on describe the same committed
// state. Remote shards are keyed on the client's last observed epoch — a
// deliberate bounded-staleness trade-off (at most one health-probe
// interval behind); with no epoch observed yet the query is uncachable.
// Returns "" (uncachable) for expressions the executor would refuse.
func (st *Store) CacheFingerprint(expr string) string {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return ""
	}
	rootTag := st.man.RootTag
	shards := st.shards
	st.mu.RUnlock()
	t, err := pattern.Parse(expr)
	if err != nil {
		return ""
	}
	if err := checkShardable(t, rootTag); err != nil {
		return ""
	}
	var b strings.Builder
	for s, sub := range shards {
		v, err := sub.View()
		if err != nil {
			return ""
		}
		empty, _, perr := v.ProvablyEmpty(expr)
		epoch := v.Epoch()
		v.Release()
		if perr != nil {
			return ""
		}
		if empty {
			continue
		}
		if epoch == 0 {
			// A remote shard whose epoch the client has never observed:
			// there is no state to key a cached answer on, so the query
			// is uncachable until the first response or probe lands.
			return ""
		}
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(s))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(epoch, 10))
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// MVCC aggregates the shards' version state: Epoch is the largest
// committed epoch, every other field is summed across shards.
func (st *Store) MVCC() nok.MVCCInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out nok.MVCCInfo
	if st.closed {
		return out
	}
	for _, sub := range st.shards {
		mi, ok := sub.MVCC()
		if !ok {
			continue
		}
		if mi.Epoch > out.Epoch {
			out.Epoch = mi.Epoch
		}
		out.LiveVersions += mi.LiveVersions
		out.PinnedSnaps += mi.PinnedSnaps
		out.NumLogical += mi.NumLogical
		out.NumPhysical += mi.NumPhysical
		out.FreePhysical += mi.FreePhysical
		out.OrphanPages += mi.OrphanPages
	}
	return out
}

// Epoch returns the largest committed epoch across shards.
func (st *Store) Epoch() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.epochLocked()
}

func (st *Store) epochLocked() uint64 {
	var e uint64
	for _, sub := range st.shards {
		if se := sub.Epoch(); se > e {
			e = se
		}
	}
	return e
}

// NodeCount returns the number of distinct nodes in the merged collection:
// per-shard counts minus the extra replicas of the broadcast root and its
// attributes.
func (st *Store) NodeCount() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total uint64
	for _, sub := range st.shards {
		total += sub.NodeCount()
	}
	return total - uint64(st.man.Shards-1)*uint64(1+st.man.RootAttrs)
}

// Stats aggregates the shards' physical layout: node counts are
// deduplicated for the broadcast replicas, sizes and page counts are the
// real on-disk sums, and MaxDepth is the maximum.
func (st *Store) Stats() nok.Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out nok.Stats
	for _, sub := range st.shards {
		s := sub.Stats()
		out.Nodes += s.Nodes
		out.Pages += s.Pages
		out.TreeBytes += s.TreeBytes
		out.ValueBytes += s.ValueBytes
		out.HeaderBytes += s.HeaderBytes
		if s.MaxDepth > out.MaxDepth {
			out.MaxDepth = s.MaxDepth
		}
	}
	out.Nodes -= uint64(st.man.Shards-1) * uint64(1+st.man.RootAttrs)
	return out
}

// TagCount sums the tag's cardinality over shards, deduplicating the
// collection root's replicas. Broadcast root attributes are the one
// remaining overcount: each shard carries a replica and the manifest does
// not record their names, so an @-tag shared with a root attribute counts
// each replica.
func (st *Store) TagCount(name string) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total uint64
	for _, sub := range st.shards {
		total += sub.TagCount(name)
	}
	if name == st.man.RootTag && total >= uint64(st.man.Shards-1) {
		total -= uint64(st.man.Shards - 1)
	}
	return total
}

// Synopsis merges the shards' synopsis summaries by tag and path name.
// Totals are exact sums over shards (the broadcast root replicas included);
// the top-n lists merge each shard's top-n, so a tag only narrowly popular
// everywhere can in principle be under-ranked.
func (st *Store) Synopsis(n int) nok.SynopsisInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out nok.SynopsisInfo
	out.Present = true
	tags := map[string]uint64{}
	paths := map[string]uint64{}
	for _, sub := range st.shards {
		si := sub.Synopsis(n)
		if !si.Present {
			out.Present = false
		}
		if si.Epoch > out.Epoch {
			out.Epoch = si.Epoch
		}
		out.TotalNodes += si.TotalNodes
		out.ValueNodes += si.ValueNodes
		out.TreePages += si.TreePages
		if si.MaxDepth > out.MaxDepth {
			out.MaxDepth = si.MaxDepth
		}
		if si.Tags > out.Tags {
			out.Tags = si.Tags
		}
		if si.Paths > out.Paths {
			out.Paths = si.Paths
		}
		out.Truncated = out.Truncated || si.Truncated
		for _, tc := range si.TopTags {
			tags[tc.Name] += tc.Count
		}
		for _, pc := range si.TopPaths {
			paths[pc.Path] += pc.Count
		}
	}
	out.TopTags = topCounts(tags, n, func(name string, c uint64) core.TagCountInfo {
		return core.TagCountInfo{Name: name, Count: c}
	})
	out.TopPaths = topCounts(paths, n, func(name string, c uint64) core.PathCountInfo {
		return core.PathCountInfo{Path: name, Count: c}
	})
	return out
}

func topCounts[T any](m map[string]uint64, n int, mk func(string, uint64) T) []T {
	type row struct {
		name string
		c    uint64
	}
	rows := make([]row, 0, len(m))
	for name, c := range m {
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c != rows[j].c {
			return rows[i].c > rows[j].c
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = mk(r.name, r.c)
	}
	return out
}

// Plan renders the cost-based plan per shard, marking shards the
// statistics prove empty for the query.
func (st *Store) Plan(expr string) (string, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return "", ErrClosed
	}
	t, err := pattern.Parse(expr)
	if err != nil {
		return "", err
	}
	if err := checkShardable(t, st.man.RootTag); err != nil {
		return "", err
	}
	var b strings.Builder
	for s, sub := range st.shards {
		if empty, reason, perr := sub.ProvablyEmpty(expr); perr == nil && empty {
			fmt.Fprintf(&b, "shard %d: pruned (%s)\n", s, reason)
			continue
		}
		pt, err := sub.Plan(expr)
		if err != nil {
			return "", fmt.Errorf("shard %d: %w", s, err)
		}
		fmt.Fprintf(&b, "shard %d:\n", s)
		for _, line := range strings.Split(strings.TrimRight(pt, "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// Verify checks the manifest's internal consistency and every shard's
// integrity, prefixing each shard's issues with its name.
func (st *Store) Verify(deep bool) *nok.VerifyResult {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := &nok.VerifyResult{Deep: deep}
	if st.closed {
		out.Issues = append(out.Issues, nok.VerifyIssue{Component: "store", Err: ErrClosed})
		return out
	}
	seen := map[uint32]int{}
	for s, a := range st.man.Assign {
		for i, g := range a {
			if int(g) <= st.man.RootAttrs {
				out.Issues = append(out.Issues, nok.VerifyIssue{
					Component: "manifest",
					Err:       fmt.Errorf("shard %d assigns broadcast ordinal %d", s, g),
				})
			}
			if i > 0 && a[i-1] >= g {
				out.Issues = append(out.Issues, nok.VerifyIssue{
					Component: "manifest",
					Err:       fmt.Errorf("shard %d assignment not strictly increasing at %d", s, g),
				})
			}
			if prev, dup := seen[g]; dup {
				out.Issues = append(out.Issues, nok.VerifyIssue{
					Component: "manifest",
					Err:       fmt.Errorf("ordinal %d assigned to both shard %d and shard %d", g, prev, s),
				})
			}
			seen[g] = s
		}
	}
	for s, sub := range st.shards {
		r := sub.Verify(deep)
		out.PagesChecked += r.PagesChecked
		out.EntriesChecked += r.EntriesChecked
		out.RecordsChecked += r.RecordsChecked
		for _, is := range r.Issues {
			out.Issues = append(out.Issues, nok.VerifyIssue{
				Component: fmt.Sprintf("shard%d/%s", s, is.Component),
				Err:       is.Err,
			})
		}
	}
	return out
}
