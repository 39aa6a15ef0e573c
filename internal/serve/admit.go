// Package serve is the online inference front end: it answers scoring
// queries by reading live embeddings through the same transport.Store the
// LRPP trainers are mutating, with a bounded-staleness hot-row cache,
// per-client admission control, and per-server circuit breakers steering
// the tier's read-mostly fast path (transport.ReadFetch). The design
// contract is load-shedding, never queue collapse: a request the system
// cannot serve within its latency budget is rejected with an attributed
// error at the door (rate limit) or at the tier edge (breaker/failover
// exhaustion), so p99 stays bounded while a shard is slow or dead.
package serve

import (
	"sync"
	"time"
)

// Clock abstracts time for the admission-control layer so the token-bucket
// refill arithmetic and breaker cooldown transitions are testable without
// time.Sleep. Production code passes nil and gets the wall clock.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// RateLimiter is a per-client token bucket: each client refills at rate
// tokens/second up to burst, and one query spends one token. Clients are
// isolated — a client blowing through its budget cannot starve another —
// which is why the buckets are independent structs with independent locks,
// not one shared pool.
type RateLimiter struct {
	rate    float64
	burst   float64
	clock   Clock
	buckets []tokenBucket
	shed    counter
}

type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// NewRateLimiter builds a limiter for clients clients at rate queries/sec
// each with the given burst. rate <= 0 disables limiting (every Allow
// succeeds). clock nil means wall clock.
func NewRateLimiter(rate, burst float64, clients int, clock Clock) *RateLimiter {
	if clock == nil {
		clock = wallClock{}
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{rate: rate, burst: burst, clock: clock, buckets: make([]tokenBucket, clients)}
}

// Allow spends one token from client's bucket, reporting whether the query
// is admitted. A denied query is counted as shed.
func (l *RateLimiter) Allow(client int) bool {
	if l.rate <= 0 {
		return true
	}
	b := &l.buckets[client]
	now := l.clock.Now()
	b.mu.Lock()
	if !b.primed {
		b.tokens, b.last, b.primed = l.burst, now, true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		l.shed.add(1)
	}
	return ok
}

// Shed returns how many queries the limiter has rejected.
func (l *RateLimiter) Shed() int64 { return l.shed.load() }

// Breaker states. Closed passes traffic and counts consecutive failures;
// Open vetoes the server outright until Cooldown elapses; HalfOpen admits
// exactly one probe whose outcome decides between re-closing and
// re-opening.
const (
	BreakerClosed = iota
	BreakerOpen
	BreakerHalfOpen
)

// BreakerConfig tunes the per-server circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that trips the
	// breaker open. <= 0 means 3.
	FailThreshold int
	// SlowThreshold classifies a successful read slower than this as a
	// failure (a crawling shard is shed like a dead one). 0 disables.
	SlowThreshold time.Duration
	// Cooldown is how long an open breaker vetoes the server before
	// admitting a half-open probe. <= 0 means 200ms.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 200 * time.Millisecond
	}
	return c
}

// CircuitBreaker implements transport.ReadPolicy over a tier of servers:
// AllowRead vetoes servers whose breaker is open (so ReadFetch diverts the
// sub-batch to the next replica on the ring *before* queueing behind a dead
// socket's timeout), and ObserveRead feeds every attempt's outcome back
// into the state machine. One breaker state per server, independently
// locked; the read path calls in from per-partition goroutines.
type CircuitBreaker struct {
	cfg   BreakerConfig
	clock Clock
	srv   []breakerState
	trips counter
}

type breakerState struct {
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
}

// NewCircuitBreaker builds a breaker over servers tier servers. clock nil
// means wall clock.
func NewCircuitBreaker(servers int, cfg BreakerConfig, clock Clock) *CircuitBreaker {
	if clock == nil {
		clock = wallClock{}
	}
	return &CircuitBreaker{cfg: cfg.withDefaults(), clock: clock, srv: make([]breakerState, servers)}
}

// AllowRead implements transport.ReadPolicy.
func (cb *CircuitBreaker) AllowRead(server int) bool {
	s := &cb.srv[server]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if cb.clock.Now().Sub(s.openedAt) < cb.cfg.Cooldown {
			return false
		}
		s.state = BreakerHalfOpen
		s.probing = true
		return true
	default: // half-open: one probe in flight at a time
		if s.probing {
			return false
		}
		s.probing = true
		return true
	}
}

// ObserveRead implements transport.ReadPolicy.
func (cb *CircuitBreaker) ObserveRead(server int, d time.Duration, err error) {
	failed := err != nil || (cb.cfg.SlowThreshold > 0 && d > cb.cfg.SlowThreshold)
	s := &cb.srv[server]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == BreakerHalfOpen {
		s.probing = false
		if failed {
			s.state = BreakerOpen
			s.openedAt = cb.clock.Now()
			cb.trips.add(1)
		} else {
			s.state = BreakerClosed
			s.fails = 0
		}
		return
	}
	if !failed {
		s.fails = 0
		return
	}
	s.fails++
	if s.state == BreakerClosed && s.fails >= cb.cfg.FailThreshold {
		s.state = BreakerOpen
		s.openedAt = cb.clock.Now()
		cb.trips.add(1)
	}
}

// NotifyRevived tells the breaker that server has been re-admitted to the
// tier after a certified rejoin. An open breaker goes straight to half-open
// — the next read probes the revived server immediately instead of waiting
// out the cooldown window — and the consecutive-failure count resets so the
// old incarnation's death doesn't linger against the new one. Closed and
// half-open breakers just reset their failure count.
func (cb *CircuitBreaker) NotifyRevived(server int) {
	if server < 0 || server >= len(cb.srv) {
		return
	}
	s := &cb.srv[server]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails = 0
	if s.state == BreakerOpen {
		s.state = BreakerHalfOpen
		s.probing = false
	}
}

// State returns server's current breaker state (BreakerClosed/Open/HalfOpen).
func (cb *CircuitBreaker) State(server int) int {
	s := &cb.srv[server]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Trips returns how many times any breaker transitioned to open.
func (cb *CircuitBreaker) Trips() int64 { return cb.trips.load() }
