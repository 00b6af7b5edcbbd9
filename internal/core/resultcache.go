package core

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/datalake"
	"repro/internal/verify"
)

// resultCache is a sharded LRU of completed verification Reports, the
// read-path counterpart of the write path's pipelining: VerifAI's verifiers
// are deterministic functions of (object, evidence), and the lake's
// monotonic version orders every mutation, so a Report stays exactly valid
// until a write touches one of the evidence kinds it was computed over.
//
// Invalidation is version-based and per-kind, not wholesale. The cache
// subscribes to the lake's change feed and tracks, per instance kind, the
// highest committed version that touched it (Event.Touches). An entry
// remembers the lake version its verification snapshot reflected; a lookup
// is a hit only while that version is at or past the last write touching
// every kind the entry's retrieval spanned. A document ingest therefore
// leaves table-only claim entries hot, while a table ingest kills them
// precisely.
//
// The subscription participates in the lake's application protocol: the
// per-kind watermark advances before the write's version is published,
// so a verify issued after an ingest acknowledgment can never be served a
// pre-ingest entry — the coherence guarantee the hammer test asserts.
//
// Trust is the one verdict input outside (object, evidence): SetSourceTrust
// re-weights resolution, so the cache carries an epoch that bumps on every
// trust override, invalidating all prior entries (trust changes are rare
// administrative events; per-source precision is not worth the bookkeeping).
type resultCache struct {
	shards []*rcShard

	// kindVer[k] is the highest committed lake version that touched kind k,
	// maintained by the change-feed subscription. Kinds are small contiguous
	// ints, so a fixed array keeps the read path lock-free.
	kindVer [4]atomic.Uint64
	// epoch invalidates everything on trust overrides.
	epoch atomic.Uint64

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64

	unsubscribe func()
	closeOnce   sync.Once
}

// rcShardCount spreads entries (and their LRU locks) so concurrent verify
// traffic on different objects does not serialize on one mutex.
const rcShardCount = 16

// rcShard is one LRU partition.
type rcShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

// rcEntry is one cached Report with its validity stamps.
type rcEntry struct {
	key string
	// version is the lake's published version when the verification's
	// retrieval began: every index read the Report depends on reflects at
	// least this version, and nothing later is assumed.
	version uint64
	epoch   uint64
	report  Report
}

// newResultCache returns a cache holding at most capacity entries across
// rcShardCount LRU shards (per-shard capacity rounds up, so tiny capacities
// still admit one entry per shard).
func newResultCache(capacity int) *resultCache {
	perShard := (capacity + rcShardCount - 1) / rcShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &resultCache{shards: make([]*rcShard, rcShardCount)}
	for i := range c.shards {
		c.shards[i] = &rcShard{
			cap:   perShard,
			ll:    list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

// attach subscribes the cache to the lake's change feed and to source
// registrations. The subscription is quiesced: a write committed but still
// dispatching during pipeline construction cannot slip past the watermark
// unobserved. Apply runs on the dispatcher goroutine, so the per-kind
// watermark is advanced before the lake publishes the write's version —
// i.e. before the ingest caller's acknowledgment returns. Source
// registrations bump the epoch: an AddSource overwrite changes the
// TrustPrior that verdict resolution falls back to, which is invisible to
// the versioned feed.
func (c *resultCache) attach(lake *datalake.Lake) error {
	unsubscribe, err := lake.Subscribe(nil, datalake.Subscriber{
		Apply: func(ev datalake.Event) error {
			c.observe(ev)
			return nil
		},
		Source: func(datalake.Source) { c.bumpEpoch() },
	})
	c.unsubscribe = unsubscribe
	return err
}

// close detaches the cache from the change feed. Idempotent.
func (c *resultCache) close() {
	c.closeOnce.Do(func() {
		if c.unsubscribe != nil {
			c.unsubscribe()
		}
	})
}

// observe advances the per-kind invalidation watermark for one committed
// mutation. Events arrive in version order, but the CAS-max loop keeps the
// watermark monotonic even if that ever changes.
func (c *resultCache) observe(ev datalake.Event) {
	for _, k := range ev.Touches() {
		if int(k) < 0 || int(k) >= len(c.kindVer) {
			continue
		}
		kv := &c.kindVer[k]
		for {
			cur := kv.Load()
			if ev.Version <= cur || kv.CompareAndSwap(cur, ev.Version) {
				break
			}
		}
	}
}

// bumpEpoch invalidates every entry (trust override).
func (c *resultCache) bumpEpoch() { c.epoch.Add(1) }

// minValid returns the lowest snapshot version still valid for a retrieval
// spanning kinds: the max per-kind write watermark.
func (c *resultCache) minValid(kinds []datalake.Kind) uint64 {
	var v uint64
	for _, k := range kinds {
		if int(k) < 0 || int(k) >= len(c.kindVer) {
			continue
		}
		if kv := c.kindVer[k].Load(); kv > v {
			v = kv
		}
	}
	return v
}

// shardFor hashes a key onto its LRU shard (FNV-1a).
func (c *resultCache) shardFor(key string) *rcShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// get returns the cached Report for key if one exists and is still valid
// for a retrieval spanning kinds. Stale entries are evicted on sight and
// counted as invalidations (invalidation is lazy: the write only advances
// a watermark, and the entry dies at its next lookup or by LRU pressure).
func (c *resultCache) get(key string, kinds []datalake.Kind) (Report, bool) {
	minValid := c.minValid(kinds)
	epoch := c.epoch.Load()
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return Report{}, false
	}
	e := el.Value.(*rcEntry)
	if e.version < minValid || e.epoch != epoch {
		sh.ll.Remove(el)
		delete(sh.items, key)
		sh.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return Report{}, false
	}
	// Copy the report out while the lock is held: a concurrent put for the
	// same key refreshes the entry's fields in place.
	rep := e.report
	sh.ll.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return rep, true
}

// put caches a completed Report. version and epoch are the stamps read
// before the verification's retrieval began; an entry already stale against
// the current watermarks (a write landed mid-verification) is not inserted.
func (c *resultCache) put(key string, kinds []datalake.Kind, version, epoch uint64, rep Report) {
	if version < c.minValid(kinds) || epoch != c.epoch.Load() {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*rcEntry)
		e.version, e.epoch, e.report = version, epoch, rep
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&rcEntry{key: key, version: version, epoch: epoch, report: rep})
	if sh.ll.Len() > sh.cap {
		last := sh.ll.Back()
		sh.ll.Remove(last)
		delete(sh.items, last.Value.(*rcEntry).key)
	}
}

// getPinned returns the cached Report for a pin-scoped key. Pinned entries
// read immutable snapshot state, so neither the per-kind watermarks nor the
// trust epoch can stale them — the key itself (which embeds the snapshot's
// registry-unique identity, see pinnedCacheKey) is the whole validity
// story, and entries retire only by LRU pressure.
func (c *resultCache) getPinned(key string) (Report, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return Report{}, false
	}
	rep := el.Value.(*rcEntry).report
	sh.ll.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return rep, true
}

// putPinned caches a Report computed against a retained snapshot. No
// version/epoch stamps: the snapshot is immutable, so the entry can never
// go stale (its key dies with the pin generation instead).
func (c *resultCache) putPinned(key string, rep Report) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*rcEntry).report = rep
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&rcEntry{key: key, report: rep})
	if sh.ll.Len() > sh.cap {
		last := sh.ll.Back()
		sh.ll.Remove(last)
		delete(sh.items, last.Value.(*rcEntry).key)
	}
}

// len returns the current entry count across shards.
func (c *resultCache) len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// stats snapshots the counters.
func (c *resultCache) stats() (hits, misses, invalidations uint64, size int) {
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load(), c.len()
}

// cacheKey fingerprints one verification request: the task kind, the
// object's identity and full structured content (verifiers decide from the
// structured fields, not just the retrieval text — a claim's Op/Value and
// a tuple's cells must all participate — and the calibrated error profiles
// additionally key off the object ID), and the evidence-kind set, which
// must already be normalized (sorted, deduplicated: every caller passes
// through Pipeline.normalizeKinds). Fields are length-prefixed so no
// concatenation of distinct requests collides.
func cacheKey(g verify.Generated, kinds []datalake.Kind) string {
	var b strings.Builder
	writePart := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	writePart(g.Kind.String())
	writePart(g.ID)
	switch g.Kind {
	case verify.KindClaim:
		c := g.Claim
		writePart(c.Text)
		writePart(c.Context)
		for _, e := range c.Entities {
			writePart(e)
		}
		writePart(c.Attribute)
		writePart(strconv.Itoa(int(c.Op)))
		writePart(c.Value)
	case verify.KindTuple:
		tp := g.Tuple
		writePart(tp.Caption)
		for i, col := range tp.Columns {
			writePart(col)
			writePart(tp.Values[i])
		}
		writePart(g.Attr)
	default:
		writePart(g.Query())
		writePart(g.Attr)
	}
	for _, k := range kinds {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(k)))
	}
	return b.String()
}
