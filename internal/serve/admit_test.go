package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// FakeClock is a manually advanced Clock for tests.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock starts a fake clock at an arbitrary fixed instant.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(1_000_000, 0)}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Token-bucket arithmetic under a fake clock: burst drains, refill accrues
// at exactly rate tokens/second, and the bucket caps at burst.
func TestRateLimiterRefillArithmetic(t *testing.T) {
	clk := NewFakeClock()
	l := NewRateLimiter(10, 5, 1, clk) // 10 qps, burst 5

	for i := 0; i < 5; i++ {
		if !l.Allow(0) {
			t.Fatalf("burst query %d denied with tokens in the bucket", i)
		}
	}
	if l.Allow(0) {
		t.Fatal("query admitted from an empty bucket")
	}
	if got := l.Shed(); got != 1 {
		t.Fatalf("shed count %d, want 1", got)
	}

	// 100ms at 10 qps accrues exactly one token.
	clk.Advance(100 * time.Millisecond)
	if !l.Allow(0) {
		t.Fatal("refilled token denied")
	}
	if l.Allow(0) {
		t.Fatal("second query admitted after a one-token refill")
	}

	// 250ms accrues 2.5 tokens: two queries pass, the third is shed.
	clk.Advance(250 * time.Millisecond)
	if !l.Allow(0) || !l.Allow(0) {
		t.Fatal("2.5-token refill did not admit two queries")
	}
	if l.Allow(0) {
		t.Fatal("half a token admitted a query")
	}

	// A long idle period caps at burst, not rate×elapsed.
	clk.Advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if l.Allow(0) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("after a long idle %d queries admitted, want burst=5", admitted)
	}
}

// Each client owns an isolated bucket: one client exhausting its budget
// must not steal another's tokens.
func TestRateLimiterPerClientIsolation(t *testing.T) {
	clk := NewFakeClock()
	l := NewRateLimiter(1, 2, 3, clk)

	for i := 0; i < 2; i++ {
		if !l.Allow(0) {
			t.Fatalf("client 0 burst query %d denied", i)
		}
	}
	if l.Allow(0) {
		t.Fatal("client 0 admitted past its burst")
	}
	for c := 1; c < 3; c++ {
		if !l.Allow(c) {
			t.Fatalf("client %d denied because client 0 drained its own bucket", c)
		}
	}
}

// Rate 0 disables limiting entirely.
func TestRateLimiterDisabled(t *testing.T) {
	l := NewRateLimiter(0, 0, 1, NewFakeClock())
	for i := 0; i < 100; i++ {
		if !l.Allow(0) {
			t.Fatal("disabled limiter shed a query")
		}
	}
}

// Breaker lifecycle under a fake clock: consecutive failures trip it open,
// the cooldown gates the half-open probe, and the probe's outcome decides
// between re-closing and re-opening — all without a single time.Sleep.
func TestCircuitBreakerTripAndHalfOpenProbe(t *testing.T) {
	clk := NewFakeClock()
	cb := NewCircuitBreaker(2, BreakerConfig{
		FailThreshold: 3,
		Cooldown:      time.Second,
	}, clk)

	fail := errors.New("down")
	// Two failures: still closed (threshold is 3 consecutive).
	cb.ObserveRead(0, time.Millisecond, fail)
	cb.ObserveRead(0, time.Millisecond, fail)
	if st := cb.State(0); st != BreakerClosed {
		t.Fatalf("state %d after 2 failures, want closed", st)
	}
	// A success resets the consecutive count.
	cb.ObserveRead(0, time.Millisecond, nil)
	cb.ObserveRead(0, time.Millisecond, fail)
	cb.ObserveRead(0, time.Millisecond, fail)
	if st := cb.State(0); st != BreakerClosed {
		t.Fatal("breaker tripped though a success broke the failure run")
	}
	// The third consecutive failure trips it.
	cb.ObserveRead(0, time.Millisecond, fail)
	if st := cb.State(0); st != BreakerOpen {
		t.Fatalf("state %d after 3 consecutive failures, want open", st)
	}
	if cb.Trips() != 1 {
		t.Fatalf("trips %d, want 1", cb.Trips())
	}
	if cb.AllowRead(0) {
		t.Fatal("open breaker admitted a read before cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(time.Second)
	if !cb.AllowRead(0) {
		t.Fatal("half-open probe denied after cooldown")
	}
	if st := cb.State(0); st != BreakerHalfOpen {
		t.Fatalf("state %d during probe, want half-open", st)
	}
	if cb.AllowRead(0) {
		t.Fatal("second concurrent probe admitted in half-open")
	}

	// Probe fails: back to open, a fresh cooldown starts.
	cb.ObserveRead(0, time.Millisecond, fail)
	if st := cb.State(0); st != BreakerOpen {
		t.Fatalf("state %d after failed probe, want open", st)
	}
	if cb.AllowRead(0) {
		t.Fatal("read admitted right after a failed probe")
	}

	// Next probe succeeds: closed, traffic flows again.
	clk.Advance(time.Second)
	if !cb.AllowRead(0) {
		t.Fatal("probe denied after second cooldown")
	}
	cb.ObserveRead(0, time.Millisecond, nil)
	if st := cb.State(0); st != BreakerClosed {
		t.Fatalf("state %d after successful probe, want closed", st)
	}
	for i := 0; i < 5; i++ {
		if !cb.AllowRead(0) {
			t.Fatal("closed breaker denied a read")
		}
	}
}

// A crawling shard trips the breaker just like a dead one: successful reads
// slower than SlowThreshold count as failures.
func TestCircuitBreakerSlowReadsTrip(t *testing.T) {
	cb := NewCircuitBreaker(1, BreakerConfig{
		FailThreshold: 2,
		SlowThreshold: 10 * time.Millisecond,
		Cooldown:      time.Second,
	}, NewFakeClock())
	cb.ObserveRead(0, 50*time.Millisecond, nil)
	cb.ObserveRead(0, 50*time.Millisecond, nil)
	if st := cb.State(0); st != BreakerOpen {
		t.Fatalf("state %d after 2 slow reads, want open", st)
	}
}

// Breakers are per server: server 1's failures never veto server 0.
func TestCircuitBreakerPerServerIsolation(t *testing.T) {
	cb := NewCircuitBreaker(2, BreakerConfig{FailThreshold: 1, Cooldown: time.Hour}, NewFakeClock())
	cb.ObserveRead(1, time.Millisecond, errors.New("down"))
	if cb.AllowRead(1) {
		t.Fatal("tripped server admitted a read")
	}
	if !cb.AllowRead(0) {
		t.Fatal("healthy server vetoed by its neighbor's breaker")
	}
}

// A certified tier rejoin short-circuits the breaker's cooldown: an open
// breaker goes straight to half-open — the very next read probes the
// revived server — and the failure streak the old incarnation accrued is
// forgiven. This is the serve-side half of the rejoin wiring
// (transport.ShardedStore.SubscribeRevived → Frontend.NotifyRevived).
func TestCircuitBreakerNotifyRevived(t *testing.T) {
	clk := NewFakeClock()
	cb := NewCircuitBreaker(2, BreakerConfig{
		FailThreshold: 2,
		Cooldown:      time.Minute,
	}, clk)

	fail := errors.New("down")
	cb.ObserveRead(1, time.Millisecond, fail)
	cb.ObserveRead(1, time.Millisecond, fail)
	if st := cb.State(1); st != BreakerOpen {
		t.Fatalf("state %d after trip, want open", st)
	}
	if cb.AllowRead(1) {
		t.Fatal("open breaker admitted a read mid-cooldown")
	}

	// The rejoin certifies long before the minute-long cooldown elapses.
	cb.NotifyRevived(1)
	if st := cb.State(1); st != BreakerHalfOpen {
		t.Fatalf("state %d after revival, want half-open", st)
	}
	if !cb.AllowRead(1) {
		t.Fatal("revived server denied its probe")
	}
	if cb.AllowRead(1) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	cb.ObserveRead(1, time.Millisecond, nil)
	if st := cb.State(1); st != BreakerClosed {
		t.Fatalf("state %d after a successful probe, want closed", st)
	}

	// On a closed breaker the revival only forgives the failure streak: one
	// old failure plus one new one must not re-trip.
	cb.ObserveRead(1, time.Millisecond, fail)
	cb.NotifyRevived(1)
	cb.ObserveRead(1, time.Millisecond, fail)
	if st := cb.State(1); st != BreakerClosed {
		t.Fatalf("state %d, want closed: revival should have reset the streak", st)
	}

	// Out-of-range servers are ignored, not a panic (revival callbacks are
	// wired across subsystems whose widths can drift).
	cb.NotifyRevived(-1)
	cb.NotifyRevived(99)

	// The untouched neighbor stayed closed throughout.
	if st := cb.State(0); st != BreakerClosed {
		t.Fatalf("neighbor state %d, want closed", st)
	}
}
