package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/sim"
)

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState uint8

const (
	// BreakerClosed admits everything and counts outcomes over a
	// tumbling window; a window whose failure rate reaches the
	// threshold trips the breaker open.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast (no replica cycles spent) until the
	// cooldown elapses, then relaxes to half-open.
	BreakerOpen
	// BreakerHalfOpen admits a seeded fraction of calls as probes:
	// enough consecutive probe successes re-close the breaker, a single
	// probe failure re-opens it and restarts the cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "breaker-?"
}

// Breaker is one route's circuit breaker. It is driven from the call
// path — Admit before issuing, Report on completion — and keeps no
// timers: the open→half-open transition happens lazily when the first
// call after the cooldown asks. All state is flat, so the hot path is
// allocation-free.
type Breaker struct {
	rate     float64 // failure-rate trip threshold over a window
	window   int     // outcomes per tumbling window
	cooldown cycles.Cycles
	probeP   float64 // half-open admission probability
	quota    int     // consecutive probe successes to close

	state    BreakerState
	fails    int
	total    int
	okStreak int
	openedAt cycles.Cycles

	opens     uint64 // closed→open and half-open→open transitions
	fastFails uint64 // calls rejected without touching a replica
}

// newBreaker builds a breaker from the policy's knobs, or returns nil
// when the policy leaves the breaker off. pol must be normalized.
func newBreaker(pol RoutePolicy) *Breaker {
	if pol.BreakerFailureRate <= 0 {
		return nil
	}
	return &Breaker{
		rate:     pol.BreakerFailureRate,
		window:   pol.BreakerWindow,
		cooldown: pol.BreakerCooldown,
		probeP:   pol.BreakerProbeP,
		quota:    pol.BreakerProbeQuota,
	}
}

// State reports the breaker's state at now, applying the lazy
// open→half-open relaxation.
func (b *Breaker) State(now cycles.Cycles) BreakerState {
	if b.state == BreakerOpen && now >= b.openedAt+b.cooldown {
		b.state = BreakerHalfOpen
		b.okStreak = 0
	}
	return b.state
}

// Admit decides whether a call may be issued at now. A false return is
// a fast failure: the caller fails the call without spending replica
// cycles and must not Report its outcome. Probe admission in half-open
// draws from rng — seeded, so runs stay deterministic.
func (b *Breaker) Admit(now cycles.Cycles, rng *sim.Rand) bool {
	switch b.State(now) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if rng.Float64() < b.probeP {
			return true
		}
	}
	b.fastFails++
	return false
}

// Report feeds one admitted call's outcome back at now.
func (b *Breaker) Report(now cycles.Cycles, ok bool) {
	switch b.State(now) {
	case BreakerClosed:
		b.total++
		if !ok {
			b.fails++
		}
		if b.total >= b.window {
			if float64(b.fails) >= b.rate*float64(b.total) {
				b.trip(now)
			}
			b.total = 0
			b.fails = 0
		}
	case BreakerHalfOpen:
		if !ok {
			b.trip(now)
			return
		}
		b.okStreak++
		if b.okStreak >= b.quota {
			b.state = BreakerClosed
			b.total = 0
			b.fails = 0
		}
	case BreakerOpen:
		// A straggler from before the trip; the window it belonged to
		// is gone.
	}
}

func (b *Breaker) trip(now cycles.Cycles) {
	b.state = BreakerOpen
	b.openedAt = now
	b.opens++
}

// Opens and FastFails expose the report counters.
func (b *Breaker) Opens() uint64     { return b.opens }
func (b *Breaker) FastFails() uint64 { return b.fastFails }
