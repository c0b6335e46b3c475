package cluster

import (
	"math"

	"github.com/skipsim/skip/internal/sim"
)

// TokenBucket is the front-end admission controller: requests spend one
// token each, tokens refill continuously at rate per second up to
// burst, and a request arriving to an empty bucket is rejected
// outright. Refill is computed lazily from elapsed simulated time, so
// admission decisions are exactly reproducible for a given arrival
// stream.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Time
}

// NewTokenBucket starts a full bucket. A non-positive burst defaults to
// one second's refill, but never below a single token.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow refills for the time elapsed since the last decision and spends
// one token if available.
func (tb *TokenBucket) Allow(now sim.Time) bool {
	if now > tb.last {
		tb.tokens = math.Min(tb.burst, tb.tokens+float64(tb.rate*(now-tb.last).Seconds()))
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}
