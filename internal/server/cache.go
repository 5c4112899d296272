package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nok"
)

// cacheKey identifies one cacheable evaluation: the *normalized* query (the
// parsed pattern tree rendered back to text, so `//book` and `// book`
// collide), the forced strategy, and the state fingerprint at lookup time —
// the committed epoch for single stores, the participating (shard, epoch)
// pairs for sharded collections. Committed mutations to participating
// state change the fingerprint, so every entry computed before them becomes
// unreachable — stale results are never served, and dead entries age out
// through normal LRU eviction. Mutations to shards a query is pruned from
// leave its fingerprint, and therefore its cached results, intact.
type cacheKey struct {
	expr     string
	strategy nok.Strategy
	fp       string
}

// resultCache is a mutex-guarded LRU over query results. Entries store the
// result slice by reference; results are treated as immutable after
// evaluation (handlers marshal them without modification).
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key     cacheKey
	results []nok.Result
	stats   *nok.QueryStats
}

// newResultCache returns a cache holding at most max entries; max <= 0
// disables caching (every lookup misses, puts are dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// get returns the cached results for key, if present.
func (c *resultCache) get(key cacheKey) ([]nok.Result, *nok.QueryStats, bool) {
	if c.max <= 0 {
		c.misses.Add(1)
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		mCacheMisses.Inc()
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	mCacheHits.Inc()
	ent := el.Value.(*cacheEntry)
	return ent.results, ent.stats, true
}

// put stores results under key, evicting the least recently used entry
// when the cache is full.
func (c *resultCache) put(key cacheKey, results []nok.Result, stats *nok.QueryStats) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).results = results
		el.Value.(*cacheEntry).stats = stats
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, results: results, stats: stats})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
	mCacheEntries.Set(int64(c.ll.Len()))
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// ratio returns the lifetime hit ratio (0 when no lookups happened).
func (c *resultCache) ratio() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
