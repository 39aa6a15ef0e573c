package core

import "testing"

func TestCacheInsertGetEvict(t *testing.T) {
	c := NewCache(2)
	c.Insert(1, []float32{1, 1}, 5)
	c.Insert(2, []float32{2, 2}, 3)
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
	e, ok := c.Get(1)
	if !ok || e.Row[0] != 1 {
		t.Fatal("missing entry 1")
	}
	if _, ok := c.Get(99); ok {
		t.Fatal("phantom entry")
	}
	evs := c.EvictExpired(3)
	if len(evs) != 0 {
		t.Fatalf("clean entries must not be written back, got %d", len(evs))
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d after evicting ttl<=3", c.Len())
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("entry 2 should be gone")
	}
}

func TestCacheDirtyWriteBack(t *testing.T) {
	c := NewCache(2)
	c.Insert(7, []float32{1, 2}, 1)
	e, _ := c.Get(7)
	e.Row[0] = 42
	e.Dirty = true
	evs := c.EvictExpired(1)
	if len(evs) != 1 || evs[0].ID != 7 || evs[0].Row[0] != 42 {
		t.Fatalf("evictions %+v", evs)
	}
}

func TestCacheEvictionsSortedByID(t *testing.T) {
	c := NewCache(1)
	for _, id := range []uint64{9, 3, 7, 1} {
		c.Insert(id, []float32{0}, 0)
		e, _ := c.Peek(id)
		e.Dirty = true
	}
	evs := c.EvictExpired(0)
	for i := 1; i < len(evs); i++ {
		if evs[i].ID <= evs[i-1].ID {
			t.Fatal("evictions not sorted")
		}
	}
}

func TestCacheUpdateTTLExtendsLife(t *testing.T) {
	c := NewCache(1)
	c.Insert(1, []float32{0}, 2)
	c.UpdateTTL(1, 10)
	c.EvictExpired(5)
	if _, ok := c.Peek(1); !ok {
		t.Fatal("TTL update ignored")
	}
	c.UpdateTTL(99, 1) // absent: must not panic or insert
	if c.Len() != 1 {
		t.Fatal("UpdateTTL must not insert")
	}
}

func TestCacheCountersAndSizes(t *testing.T) {
	c := NewCache(4)
	c.Insert(1, make([]float32, 4), 9)
	c.Insert(2, make([]float32, 4), 9)
	c.Get(1)
	c.Get(3)
	hits, misses, _ := c.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
	if c.SizeBytes() != 2*4*4 {
		t.Fatalf("size=%d", c.SizeBytes())
	}
	c.EvictExpired(100)
	if c.PeakRows() != 2 || c.PeakSizeBytes() != 32 {
		t.Fatalf("peak=%d", c.PeakRows())
	}
	_, _, ev := c.Counters()
	if ev != 2 {
		t.Fatalf("evicted=%d", ev)
	}
}

func TestCacheInsertWrongDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache(4).Insert(1, []float32{1}, 0)
}
