// Package stats maintains the persistent statistics synopsis behind the
// cost-based query planner (internal/planner): per-tag element counts with
// depth and fan-out summaries, a path summary (distinct root-to-node tag
// paths with cardinalities, keyed by the same incremental FNV-1a hash the
// path index uses), and a count-min sketch estimating the selectivity of
// indexed values. The synopsis is collected in the same pass that builds
// the store (bulk load, an incremental merge on append, or the
// index-rebuild scan after a delete) and committed at the store's epoch.
// It is the store's only statistics file: its per-tag counts also drive
// the paper's §6.2 heuristic.
//
// The design follows Arion et al., "Path Summaries and Path Partitioning
// in Modern XML Databases" (see PAPERS.md): a path summary small enough to
// keep in memory, with per-path cardinalities, suffices to choose access
// paths robustly.
package stats

import "nok/internal/symtab"

// PathSeed is the FNV-1a offset basis; path hashes fold tag symbols in
// root-to-node order, so the hash of a path extends its parent's. This is
// the canonical definition shared with the path index (internal/core).
const PathSeed = uint64(14695981039346656037)

const fnvPrime = uint64(1099511628211)

// ExtendPath folds one more tag symbol into a path hash.
func ExtendPath(h uint64, sym symtab.Sym) uint64 {
	h ^= uint64(sym & 0xFF)
	h *= fnvPrime
	h ^= uint64(sym >> 8)
	h *= fnvPrime
	return h
}

// MaxPaths caps the path summary. Documents with more distinct root-to-node
// tag paths (deeply recursive schemas) keep the most-frequently-seen-first
// prefix and set PathsTruncated; the planner then treats unknown paths as
// unestimatable rather than empty.
const MaxPaths = 4096

// TagStat summarizes one tag name across the document.
type TagStat struct {
	// Count is the number of element nodes with this tag.
	Count uint64
	// WithValue counts nodes of this tag carrying a text value.
	WithValue uint64
	// SumDepth accumulates node depths (root = 1); AvgDepth() derives the
	// mean. MaxDepth is the deepest occurrence.
	SumDepth uint64
	MaxDepth uint32
	// SumChildren accumulates the child counts of nodes with this tag;
	// AvgFanout() derives the mean fan-out.
	SumChildren uint64
}

// AvgDepth returns the mean depth of this tag's nodes (0 when unseen).
func (t *TagStat) AvgDepth() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.SumDepth) / float64(t.Count)
}

// AvgFanout returns the mean number of children of this tag's nodes.
func (t *TagStat) AvgFanout() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.SumChildren) / float64(t.Count)
}

// PathStat is one entry of the path summary: a distinct root-to-node tag
// path and how many nodes lie on it.
type PathStat struct {
	// Syms is the tag-symbol sequence from the document root (inclusive)
	// down to the path's end.
	Syms  []symtab.Sym
	Count uint64
}

// Synopsis is the persistent statistics snapshot of one store epoch.
type Synopsis struct {
	// Epoch is the store epoch the synopsis was built at; opening a store
	// whose synopsis is from another epoch fails.
	Epoch uint64

	TotalNodes uint64
	// TreePages is the string tree's page count — the planner's unit cost
	// for a full scan.
	TreePages uint64
	MaxDepth  uint32
	// ValueNodes counts nodes with a text value (= value-index entries).
	ValueNodes uint64

	Tags map[symtab.Sym]*TagStat
	// Paths maps path hash → path summary entry. PathsTruncated records
	// that the document had more distinct paths than MaxPaths.
	Paths          map[uint64]*PathStat
	PathsTruncated bool

	// Values estimates per-value occurrence counts (count-min: estimates
	// never undercount).
	Values *Sketch
}

// TagCount returns the node count of a tag (0 when absent).
func (s *Synopsis) TagCount(sym symtab.Sym) uint64 {
	if t, ok := s.Tags[sym]; ok {
		return t.Count
	}
	return 0
}

// PathCount returns the cardinality of the path with the given hash. ok is
// false only when the summary was truncated and the path is unknown; with
// an untruncated summary an absent path definitely has zero nodes.
func (s *Synopsis) PathCount(hash uint64) (uint64, bool) {
	if p, ok := s.Paths[hash]; ok {
		return p.Count, true
	}
	if s.PathsTruncated {
		return 0, false
	}
	return 0, true
}

// ValueEstimate returns an upper-bound estimate of how many nodes carry
// the value with the given hash.
func (s *Synopsis) ValueEstimate(hash uint64) uint64 {
	if s.Values == nil {
		return s.ValueNodes
	}
	return s.Values.Estimate(hash)
}

// TagRank is one row of TopTags.
type TagRank struct {
	Sym   symtab.Sym
	Count uint64
}

// TopTags returns the n most frequent tags, most frequent first (ties
// broken by symbol for determinism).
func (s *Synopsis) TopTags(n int) []TagRank {
	out := make([]TagRank, 0, len(s.Tags))
	for sym, t := range s.Tags {
		out = append(out, TagRank{Sym: sym, Count: t.Count})
	}
	sortRanks(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func sortRanks(rs []TagRank) {
	// Insertion sort: tag alphabets are small (hundreds at most).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := rs[j-1], rs[j]
			if a.Count > b.Count || (a.Count == b.Count && a.Sym <= b.Sym) {
				break
			}
			rs[j-1], rs[j] = b, a
		}
	}
}

// frame is one open element on the builder's path stack.
type frame struct {
	sym  symtab.Sym
	hash uint64
}

// Builder accumulates a Synopsis from a document-order node stream — the
// SAX pass of a bulk load or the string-tree scan of an index rebuild.
// Feed it Node(sym, level) for every element in document order (level 1 =
// document root) and Value(level, hash) for every node with a text value
// (any time after its Node call), then Finish.
type Builder struct {
	syn      *Synopsis
	stack    []frame
	maxPaths int
}

// NewBuilder returns an empty Builder with the default path cap.
func NewBuilder() *Builder {
	return &Builder{
		syn: &Synopsis{
			Tags:   make(map[symtab.Sym]*TagStat),
			Paths:  make(map[uint64]*PathStat),
			Values: NewSketch(0),
		},
		maxPaths: MaxPaths,
	}
}

func (b *Builder) tag(sym symtab.Sym) *TagStat {
	t, ok := b.syn.Tags[sym]
	if !ok {
		t = &TagStat{}
		b.syn.Tags[sym] = t
	}
	return t
}

// Node records one element at the given depth (document root = 1). Calls
// must arrive in document order; the builder maintains the path stack by
// truncating it to level-1 before pushing.
func (b *Builder) Node(sym symtab.Sym, level int) {
	if level < 1 || level > len(b.stack)+1 {
		return // malformed stream; never produced by the store's scans
	}
	b.stack = b.stack[:level-1]
	parentHash := PathSeed
	if level >= 2 {
		p := b.stack[level-2]
		parentHash = p.hash
		b.tag(p.sym).SumChildren++
	}
	h := ExtendPath(parentHash, sym)
	b.stack = append(b.stack, frame{sym: sym, hash: h})

	t := b.tag(sym)
	t.Count++
	t.SumDepth += uint64(level)
	if uint32(level) > t.MaxDepth {
		t.MaxDepth = uint32(level)
	}
	s := b.syn
	s.TotalNodes++
	if uint32(level) > s.MaxDepth {
		s.MaxDepth = uint32(level)
	}
	if ps, ok := s.Paths[h]; ok {
		ps.Count++
	} else if len(s.Paths) < b.maxPaths {
		syms := make([]symtab.Sym, level)
		for i, f := range b.stack {
			syms[i] = f.sym
		}
		s.Paths[h] = &PathStat{Syms: syms, Count: 1}
	} else {
		s.PathsTruncated = true
	}
}

// Value records that the element at the given level (the one most recently
// opened there) carries a text value with the given vstore hash.
func (b *Builder) Value(level int, valueHash uint64) {
	if level < 1 || level > len(b.stack) {
		return
	}
	b.tag(b.stack[level-1].sym).WithValue++
	b.syn.ValueNodes++
	b.syn.Values.Add(valueHash)
}

// Finish stamps the synopsis with the store epoch and tree page count and
// returns it. The builder must not be reused afterwards.
func (b *Builder) Finish(epoch, treePages uint64) *Synopsis {
	b.syn.Epoch = epoch
	b.syn.TreePages = treePages
	b.stack = nil
	return b.syn
}
