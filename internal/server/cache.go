package server

import (
	"container/list"
	"sync"
)

// lruCache is a small result cache keyed by the normalized job key. Its
// values are the encoded bodies a cache hit sends. Only completed
// (non-cancelled, non-failed) results are stored, so a cached entry is
// always a full answer for its inputs.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	byKey map[string]*list.Element
}

type lruEntry struct {
	key string
	val []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached body and moves it to the front. Callers must not
// modify it.
func (c *lruCache) Get(key string) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores a body, evicting the least recently used entry past cap.
func (c *lruCache) Put(key string, val []byte) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*lruEntry).key)
	}
}

// enabled reports whether the cache stores anything.
func (c *lruCache) enabled() bool { return c != nil && c.cap > 0 }

// Len reports the number of cached entries.
func (c *lruCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
