package service

import (
	"container/list"
	"sync"

	"pathdriverwash/internal/schedule"
)

// outcome is what one solve produced: the wire response template plus
// the in-memory schedule (kept so callers can re-verify without
// decoding the document), or an error. Callers copy the response and
// stamp per-request flags (Cached, Coalesced) on the copy.
type outcome struct {
	resp  *SolveResponse
	sched *schedule.Schedule
	err   error
}

// flight is one in-flight solve for a cache key. res is written
// exactly once, before done is closed; waiters read it only after
// <-done, which gives the required happens-before edge.
type flight struct {
	done chan struct{}
	res  *outcome
}

// cacheEntry is one committed result.
type cacheEntry struct {
	key string
	res *outcome
}

// resultCache is the incumbent cache with single-flight coalescing.
// At most one solve per key is in flight, and identical concurrent
// requests wait on the leader's flight instead of solving again;
// in-flight entries are pinned and occupy no slot.
//
// Committed results follow TinyLFU admission with a one-entry window.
// The newest commit always sits in the window, so a repeat right after
// the answer hits. When the next commit displaces it, it moves to an
// LRU of max-1 entries if the LRU has room; a full LRU takes it only
// if its key was requested more often than the LRU's oldest key, which
// it evicts. Otherwise it is dropped. A stream of one-off keys
// therefore cannot flush keys that are requested again and again; the
// price is that, while the LRU is full of keys requested more often, a
// key requested once may go uncached (a key requested twice is
// cached).
type resultCache struct {
	mu       sync.Mutex
	max      int
	window   *cacheEntry              // newest commit; nil when empty
	ll       *list.List               // admitted, front = most recent
	m        map[string]*list.Element // admitted, by key
	inflight map[string]*flight
	// freq counts acquire calls per key. Every 10*max calls all counts
	// halve and zeros are dropped, so the counts follow recent traffic
	// and the map stays bounded.
	freq  map[string]int
	calls int
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:      max,
		ll:       list.New(),
		m:        make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		freq:     make(map[string]int),
	}
}

// acquire resolves a key three ways: a committed hit (hit != nil), an
// in-flight solve to coalesce onto (fl != nil, leader false), or a
// miss that elects the caller leader (fl != nil, leader true). A
// leader MUST eventually call publish on its flight, or followers
// block forever.
func (c *resultCache) acquire(key string) (hit *outcome, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count(key)
	if c.window != nil && c.window.key == key {
		return c.window.res, nil, false
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		return nil, f, false
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, f, true
}

func (c *resultCache) count(key string) {
	c.freq[key]++
	if c.calls++; c.calls < 10*c.max {
		return
	}
	c.calls = 0
	for k, n := range c.freq {
		if n /= 2; n == 0 {
			delete(c.freq, k)
		} else {
			c.freq[k] = n
		}
	}
}

// publish completes a flight: hands res to every waiter and, iff keep,
// commits it to the window (admitting or dropping the entry it
// displaces). Degraded, canceled, and failed solves publish with
// keep=false so the cache only ever serves full-fidelity results.
func (c *resultCache) publish(key string, fl *flight, res *outcome, keep bool) {
	fl.res = res
	c.mu.Lock()
	delete(c.inflight, key)
	if keep && c.max > 0 {
		switch el, ok := c.m[key]; {
		case c.window != nil && c.window.key == key: // lost a race with a re-commit; refresh
			c.window.res = res
		case ok:
			c.ll.MoveToFront(el)
			el.Value.(*cacheEntry).res = res
		default:
			if c.window != nil {
				c.admit(c.window)
			}
			c.window = &cacheEntry{key: key, res: res}
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// admit moves a displaced window entry into the LRU, or drops it.
func (c *resultCache) admit(e *cacheEntry) {
	if c.ll.Len() >= c.max-1 {
		oldest := c.ll.Back()
		if oldest == nil || c.freq[e.key] <= c.freq[oldest.Value.(*cacheEntry).key] {
			return
		}
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
	c.m[e.key] = c.ll.PushFront(e)
}

// Len reports the number of committed entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.window != nil {
		return c.ll.Len() + 1
	}
	return c.ll.Len()
}
