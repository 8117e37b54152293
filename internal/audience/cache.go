package audience

import (
	"sync"
)

// entry is one cached conjunction prefix. Entries are immutable after
// insertion: readers may hold the survivor slice without a lock, even after
// the entry has been evicted.
type entry struct {
	// key is the interned canonical key (see key.go). Holding it here lets
	// re-insertion after eviction reuse the allocation via the LRU map.
	key string
	// share is E_t[∏ q(t, λᵢ)] over the prefix.
	share float64
	// surv holds the per-grid-point survivor products, the state needed to
	// extend this prefix incrementally. Read-only once stored.
	surv []float64
	// n is the number of interests in the prefix.
	n int

	// LRU intrusive list links (shard-local, guarded by the shard mutex).
	prev, next *entry
}

// shard is one lock domain of the cache: a map for lookup plus an intrusive
// doubly-linked list in recency order (head = most recent).
type shard struct {
	mu         sync.Mutex
	m          map[string]*entry
	head, tail *entry
	capacity   int

	hits, misses, evictions uint64
}

// cache is a sharded LRU over evaluated conjunctions. Sharding bounds lock
// contention when EvalBatch or concurrent API clients hammer the engine.
type cache struct {
	shards []*shard
}

func newCache(capacity, shards int) *cache {
	if shards < 1 {
		shards = 1
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	c := &cache{shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{m: make(map[string]*entry), capacity: per}
	}
	return c
}

// shardFor hashes the key bytes (FNV-1a) to pick a lock domain.
func (c *cache) shardFor(key []byte) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// get returns the entry for key, promoting it to most-recently-used.
// The key is passed as bytes so lookups allocate nothing.
func (c *cache) get(key []byte) (*entry, bool) {
	return c.lookup(key, true)
}

// seek is get for the backward deepest-prefix probes of a whole-key miss:
// a probe that lands still counts as a hit (and promotes), but a probe that
// doesn't stays OUT of the miss counter — the walk's shorter-prefix probes
// are part of one logical miss the caller has already recorded, not
// additional evaluations avoided or performed (the Misses/Coalesced
// bookkeeping below relies on that).
func (c *cache) seek(key []byte) (*entry, bool) {
	return c.lookup(key, false)
}

func (c *cache) lookup(key []byte, countMiss bool) (*entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[string(key)] // map lookup with string(bytes) does not allocate
	if ok {
		s.hits++
		s.moveToFront(e)
	} else if countMiss {
		s.misses++
	}
	s.mu.Unlock()
	return e, ok
}

// put inserts a freshly evaluated conjunction, evicting the least-recently-used
// entry if the shard is full. The key bytes are interned (copied to an owned
// string) exactly once, on first insertion.
func (c *cache) put(key []byte, share float64, surv []float64, n int) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[string(key)]; ok {
		// Another goroutine raced us to the same prefix; both computed the
		// same bits (evaluation is deterministic), so keep the incumbent.
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.capacity {
		if victim := s.tail; victim != nil {
			s.unlink(victim)
			delete(s.m, victim.key)
			s.evictions++
		}
	}
	e := &entry{key: string(key), share: share, surv: surv, n: n}
	s.m[e.key] = e
	s.pushFront(e)
	s.mu.Unlock()
}

// lockless list helpers; callers hold s.mu.

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// LevelStats is a point-in-time snapshot of one cache level's effectiveness.
type LevelStats struct {
	// Hits and Misses count cache probes, including the per-prefix probes a
	// long conjunction issues while walking toward its longest cached prefix.
	Hits, Misses uint64
	// Evictions counts LRU evictions across all shards.
	Evictions uint64
	// Coalesced counts misses that were absorbed by an identical in-flight
	// evaluation (single-flight, flight.go): the goroutine waited for the
	// leader's result instead of re-evaluating. These are evaluations the
	// engine did NOT perform beyond what Misses alone implies.
	Coalesced uint64
	// Entries is the number of cached values right now; Capacity the total
	// the shards can hold.
	Entries, Capacity int
}

// HitRate is Hits / (Hits + Misses); 0 when no probes happened.
func (st LevelStats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// add folds another level's counters in (for the cross-level total).
func (st LevelStats) add(o LevelStats) LevelStats {
	st.Hits += o.Hits
	st.Misses += o.Misses
	st.Evictions += o.Evictions
	st.Coalesced += o.Coalesced
	st.Entries += o.Entries
	st.Capacity += o.Capacity
	return st
}

// Stats is the engine-wide snapshot, one LevelStats per cache level.
type Stats struct {
	// Prefix is the ordered-conjunction LRU: conjunctions with their
	// survivor vectors, the level behind ConjunctionShare/PrefixShares.
	Prefix LevelStats
	// Set is the sort-canonicalized set-level cache (ModeCanonical only):
	// whole-conjunction shares keyed by the sorted interest set, so permuted
	// re-probes of one set hit a single entry.
	Set LevelStats
	// Demo is the demographic level: filter shares and composite
	// (DemoFilter, conjunction) conditional audiences.
	Demo LevelStats
}

// Total folds every level into one aggregate view.
func (st Stats) Total() LevelStats {
	return st.Prefix.add(st.Set).add(st.Demo)
}

func (c *cache) stats() LevelStats {
	var st LevelStats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.m)
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

func (c *cache) reset() {
	for _, s := range c.shards {
		s.mu.Lock()
		clear(s.m) // keep the buckets: reset is hot in cold-cache benchmarks
		s.head, s.tail = nil, nil
		s.hits, s.misses, s.evictions = 0, 0, 0
		s.mu.Unlock()
	}
}
