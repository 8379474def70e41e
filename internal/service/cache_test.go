package service

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// request runs one request for key through the cache, committing a
// miss as its own leader, and reports whether it hit.
func request(t *testing.T, c *resultCache, key string) bool {
	t.Helper()
	hit, fl, leader := c.acquire(key)
	if hit != nil {
		return true
	}
	if !leader {
		t.Fatalf("%s: sequential miss was not elected leader", key)
	}
	c.publish(key, fl, &outcome{}, true)
	return false
}

// TestCacheKeepsHotKeyUnderScan: a key requested once per round of 20
// never-repeated keys stays cached at capacity 16. A plain LRU evicts
// it every round, since 20 newer keys push it out.
func TestCacheKeepsHotKeyUnderScan(t *testing.T) {
	c := newResultCache(16)
	oneOff := 0
	for round := range 50 {
		if hit := request(t, c, "hot"); round > 0 && !hit {
			t.Fatalf("round %d: hot key not answered from the cache", round)
		}
		for range 20 {
			request(t, c, fmt.Sprintf("once-%d", oneOff))
			oneOff++
		}
	}
}

// TestCacheNewestKeyHits: the newest commit is always kept, so a
// repeat right after the answer hits even when the cache is full of
// keys requested more often.
func TestCacheNewestKeyHits(t *testing.T) {
	c := newResultCache(4)
	for range 10 {
		for k := range 4 {
			request(t, c, fmt.Sprintf("hot-%d", k))
		}
	}
	for i := range 10 {
		key := fmt.Sprintf("once-%d", i)
		if request(t, c, key) {
			t.Fatalf("%s hit before it was ever committed", key)
		}
		if !request(t, c, key) {
			t.Fatalf("%s missed right after its publish", key)
		}
	}
}

// TestCacheLenBounded: whatever the traffic, the committed entries
// never exceed the capacity.
func TestCacheLenBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, capacity := range []int{1, 2, 5, 16} {
		c := newResultCache(capacity)
		for i := range 2000 {
			request(t, c, fmt.Sprintf("k%d", rng.IntN(4*capacity)))
			if n := c.Len(); n > capacity {
				t.Fatalf("capacity %d: Len %d after %d requests", capacity, n, i+1)
			}
		}
	}
}
