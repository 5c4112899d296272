package core

// synopsis.go — the DB side of the statistics synopsis (internal/stats)
// and the cost-based planner (internal/planner): the plan cache, the
// Access→Strategy mapping the evaluator uses to execute a plan, and the
// synopsis summary nokstat prints. Open loads the synopsis strictly (see
// db.go); every commit writes it at the new epoch.

import (
	"fmt"
	"sort"
	"strings"

	"nok/internal/obs"
	"nok/internal/pattern"
	"nok/internal/planner"
	"nok/internal/stats"
)

// Plan-cache counters, exposed through the default obs registry.
var (
	mPlanCacheHits   = obs.Default.Counter("nok_plan_cache_hits_total", "query plans served from the per-store plan cache")
	mPlanCacheMisses = obs.Default.Counter("nok_plan_cache_misses_total", "query plans built by the cost-based planner")
)

// Synopsis returns the statistics synopsis committed at the snapshot's
// epoch.
func (db *Snapshot) Synopsis() *stats.Synopsis { return db.syn }

// shape derives the planner's physical cost parameters from the open
// store: the string tree's page count, the Dewey index's height as the
// typical B+-tree descent cost, and a leaf fan-out estimated from the
// index page size (entries average ~32 bytes: a Dewey key plus a 14-byte
// payload and slot overhead).
func (db *Snapshot) shape() planner.Shape {
	return planner.Shape{
		TreePages:   float64(db.Tree.NumPages()),
		IndexHeight: float64(db.DeweyIdx.Height()),
		LeafFanout:  float64(db.dewIdxFile.PageSize()) / 32,
	}
}

// planFor returns the cost-based plan for a parsed query. Plans are
// cached per canonical expression; the cache lives on the Snapshot, so a
// new epoch starts with an empty one.
func (db *Snapshot) planFor(t *pattern.Tree, parts []*pattern.NoKTree, anchor *pattern.Node, chain []string) *planner.Plan {
	key := t.String()
	db.planMu.Lock()
	if p, ok := db.planCache[key]; ok {
		db.planMu.Unlock()
		mPlanCacheHits.Inc()
		return p
	}
	db.planMu.Unlock()
	mPlanCacheMisses.Inc()
	p := planner.Build(planner.Input{
		Expr:   t.Source,
		Tree:   t,
		Parts:  parts,
		Anchor: anchor,
		Chain:  chain,
	}, db.syn, db.Tags, db.shape())
	db.planMu.Lock()
	if db.planCache == nil {
		db.planCache = make(map[string]*planner.Plan)
	}
	db.planCache[key] = p
	db.planMu.Unlock()
	return p
}

// strategyForAccess maps a planned access path to the evaluator strategy
// that executes it.
func strategyForAccess(a planner.Access) Strategy {
	switch a {
	case planner.AccessTagIndex:
		return StrategyTagIndex
	case planner.AccessValueIndex:
		return StrategyValueIndex
	case planner.AccessPathIndex:
		return StrategyPathIndex
	default:
		return StrategyScan
	}
}

// Plan builds (or fetches from cache) the cost-based plan for expr without
// executing it.
func (db *Snapshot) Plan(expr string) (*planner.Plan, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return nil, err
	}
	parts := pattern.Partition(t)
	anchor, chain := topAnchor(parts[0], t)
	return db.planFor(t, parts, anchor, chain), nil
}

// PlanText renders the plan for expr.
func (db *Snapshot) PlanText(expr string) (string, error) {
	p, err := db.Plan(expr)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// TagCountInfo is one row of a synopsis dump.
type TagCountInfo struct {
	Name  string
	Count uint64
}

// PathCountInfo is one path-summary row of a synopsis dump.
type PathCountInfo struct {
	Path  string // rendered as /a/b/c
	Count uint64
}

// SynopsisInfo is the human-facing summary nokstat -stats prints.
type SynopsisInfo struct {
	// Present is false only when no store answered (closed, or an
	// unreachable remote shard); an open store always has a synopsis.
	Present    bool
	Epoch      uint64 // the store's committed epoch (a collection's largest member epoch)
	TotalNodes uint64
	ValueNodes uint64
	TreePages  uint64
	MaxDepth   uint32
	Tags       int // distinct tags
	Paths      int // distinct root-to-node paths recorded
	Truncated  bool
	TopTags    []TagCountInfo
	TopPaths   []PathCountInfo
}

// SynopsisInfo summarizes the committed synopsis with the top-n tags and
// paths by cardinality.
func (db *Snapshot) SynopsisInfo(n int) SynopsisInfo {
	syn := db.syn
	out := SynopsisInfo{
		Present:    true,
		Epoch:      syn.Epoch,
		TotalNodes: syn.TotalNodes,
		ValueNodes: syn.ValueNodes,
		TreePages:  syn.TreePages,
		MaxDepth:   syn.MaxDepth,
		Tags:       len(syn.Tags),
		Paths:      len(syn.Paths),
		Truncated:  syn.PathsTruncated,
	}

	for _, r := range syn.TopTags(n) {
		name, ok := db.Tags.Name(r.Sym)
		if !ok {
			name = fmt.Sprintf("sym(%d)", r.Sym)
		}
		out.TopTags = append(out.TopTags, TagCountInfo{Name: name, Count: r.Count})
	}

	paths := make([]PathCountInfo, 0, len(syn.Paths))
	for _, ps := range syn.Paths {
		var b strings.Builder
		for _, sym := range ps.Syms {
			name, ok := db.Tags.Name(sym)
			if !ok {
				name = fmt.Sprintf("sym(%d)", sym)
			}
			b.WriteByte('/')
			b.WriteString(name)
		}
		paths = append(paths, PathCountInfo{Path: b.String(), Count: ps.Count})
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Count != paths[j].Count {
			return paths[i].Count > paths[j].Count
		}
		return paths[i].Path < paths[j].Path
	})
	if n > 0 && len(paths) > n {
		paths = paths[:n]
	}
	out.TopPaths = paths
	return out
}
