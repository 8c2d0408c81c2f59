package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// Event and queue-job IDs pack everything a completion or timer needs
// to find its call again — and to detect that the call has moved on:
//
//	bits  0..23  call slot in the arena
//	bits 24..47  call generation at issue time
//	bits 48..55  attempt index within the call
//	bits 56..59  event kind
//
// A completion or timer whose generation no longer matches the slot's
// is stale — the call it belonged to finished and the slot was reused —
// and is accounted as wasted work instead of being dispatched.
const (
	idSlotBits = 24
	idGenBits  = 24
	idSlotMask = 1<<idSlotBits - 1
	idGenMask  = 1<<idGenBits - 1

	kindAttempt = 0 // queue job: one attempt in service at a replica
	kindTimeout = 1 // per-attempt deadline
	kindHedge   = 2 // hedge trigger
	kindRetry   = 3 // backoff expiry: issue the next attempt
	kindFail    = 4 // fast failure: breaker, shed, or no backend
)

func encodeID(kind uint64, slot int32, gen uint32, attempt uint8) uint64 {
	return kind<<56 | uint64(attempt)<<48 | uint64(gen&idGenMask)<<idSlotBits | uint64(uint32(slot)&idSlotMask)
}

func decodeID(id uint64) (kind uint64, slot int32, gen uint32, attempt uint8) {
	return id >> 56, int32(id & idSlotMask), uint32(id>>idSlotBits) & idGenMask, uint8(id >> 48)
}

// CallOrder is the canonical tie-break between a machine's events of
// one kind at one instant: by call slot, then generation, then attempt.
// Drivers that batch events sort on it.
func CallOrder(id uint64) uint64 {
	_, slot, gen, k := decodeID(id)
	return uint64(slot)<<32 | uint64(gen)<<8 | uint64(k)
}

// Timer is the kind of timer a machine asks its driver to arm. A
// driver that batches events fires same-instant timers in this order.
type Timer uint8

const (
	TimeoutTimer Timer = iota // per-attempt deadline
	HedgeTimer                // hedge trigger
	RetryTimer                // backoff expiry
)

// Driver is the transport seam between the call machine and the engine
// it runs on. Routes are named by their index (creation order).
type Driver[T any] interface {
	// Pick routes a new attempt on route r: a replica index, or -1
	// when none is up.
	Pick(r int32) int
	// PickOther routes a hedge, preferring a replica other than avoid.
	PickOther(r int32, avoid int) int
	// Overloaded is the shed predicate: route r's target holds more
	// than depth backlog per up replica.
	Overloaded(r int32, depth int) bool
	// Send enqueues attempt id at replica bi at instant at, charging
	// route r's connection regime — unless the replica is partitioned
	// from the tier, in which case the attempt is lost in the network
	// and only its timeout ends it.
	Send(r int32, bi int, id uint64, at cycles.Cycles)
	// Arm fires timer id back into Machine.Fire at at+delay.
	Arm(t Timer, id uint64, at, delay cycles.Cycles)
	// Fail hands a fast-failed call's id back to Machine.Fire, inline
	// or through the event loop.
	Fail(id uint64, at cycles.Cycles)
	// Done observes a finished call on route r: its tag, start instant,
	// end instant, and outcome. The call's slot is already free.
	Done(r int32, tag T, born, at cycles.Cycles, ok bool)
}

// Call lifecycle: racing (attempts, timeouts, retries, hedges compete
// to produce the first response) → subtree (the driver runs whatever
// the winning response starts downstream) → freed. Timers and
// completions carry the state they expect; anything arriving late is
// ignored or counted as waste.
const (
	stateFree uint8 = iota
	stateRacing
	stateSubtree
)

const noHedge = 0xff

// call is one in-flight invocation of a route. Calls live in a slot
// arena with a free list; the struct is pointer-free (so is every tag
// a driver uses) so steady-state traffic costs the garbage collector
// nothing.
type call[T any] struct {
	tag       T             // the driver's per-call state
	born      cycles.Cycles // call start
	gen       uint32
	route     int32
	state     uint8
	attempt   uint8  // attempts issued so far
	retries   uint8  // retries consumed (hedges are not retries)
	hedgeIdx  uint8  // attempt index of the hedge, noHedge if none
	liveMask  uint16 // bit per attempt still eligible to win
	pendRetry bool   // a backoff timer is pending; no attempt is live
	brSkip    bool   // fast-failed before issue; not a breaker outcome
	lastBE    int32  // replica of the newest attempt (hedge avoids it)
}

// Pool is what every route into one replica set shares: the attempt
// latencies that arm hedges, and the account of wasted work.
type Pool struct {
	// attemptLat observes winning attempts' service-phase latency
	// (attempt start → replica completion, queueing included).
	attemptLat sim.Histogram

	wasted       uint64 // completions nobody was waiting for any more
	wastedCycles cycles.Cycles

	// wastedLat observes wasted completions' latency separately from
	// attemptLat and the route histograms: a hedge loser's slow finish
	// is capacity accounting, not request experience, and folding it
	// into p99 would indict hedging for the very tail it removed.
	wastedLat sim.Histogram
}

// Route is one edge of the call machine: its normalized policy, circuit
// breaker, retry budget, and the accounting RouteStats renders.
type Route struct {
	name   string
	idx    int32 // creation order: the machine's route index and trace track
	pol    RoutePolicy
	br     *Breaker // nil unless the policy arms the circuit breaker
	pool   *Pool    // the target replica set's shared state
	budget float64

	// lat observes successful full-call latency (call start → call
	// completion, downstream subtree included) — the reported
	// percentiles.
	lat sim.Histogram

	calls        uint64
	completed    uint64
	failed       uint64
	retries      uint64
	timeouts     uint64
	lost         uint64 // attempts lost with a dead backlog, retried like timeouts
	hedges       uint64
	hedgeWins    uint64
	budgetDenied uint64
	noBackend    uint64
	handshakes   uint64
	errors       uint64 // gray-failure attempt errors at this route's target
	shed         uint64 // calls failed fast by the overload valve
}

// Name renders the route like "ingress->app".
func (r *Route) Name() string { return r.name }

// Open counts one call entering the route outside the machine — a
// driver's bookkeeping-only route; Settle records its outcome.
func (r *Route) Open() { r.calls++ }

// Settle records one call outcome and, on success, its latency.
func (r *Route) Settle(ok bool, lat cycles.Cycles) {
	if ok {
		r.completed++
		r.lat.Observe(lat)
	} else {
		r.failed++
	}
}

// Handshake is the connection-handling charge of one request on this
// route to a replica whose keep-alive countdown is *kaLeft: every
// request pays ConnSetup without keep-alive, one in KeepAliveReqs with.
func (r *Route) Handshake(kaLeft *int32) cycles.Cycles {
	if r.pol.ConnSetup == 0 {
		return 0
	}
	if !r.pol.KeepAlive {
		r.handshakes++
		return r.pol.ConnSetup
	}
	var c cycles.Cycles
	if *kaLeft == 0 {
		r.handshakes++
		c = r.pol.ConnSetup
		*kaLeft = int32(r.pol.KeepAliveReqs)
	}
	*kaLeft--
	return c
}

// hedgeDelay is the armed hedge trigger: the target's observed HedgeP
// attempt-latency quantile, or 0 when hedging is off or still warming
// up.
func (r *Route) hedgeDelay() cycles.Cycles {
	if r.pol.HedgeP <= 0 || r.pool.attemptLat.Count() < hedgeMinSamples {
		return 0
	}
	return r.pool.attemptLat.Quantile(r.pol.HedgeP)
}

// Machine is the call/attempt state machine of the ingress tier:
// admission (breaker, shed), first-attempt issue, timeout and hedge
// arming, the retry ladder with capped backoff and token budget, and
// the accounting and trace records all of it produces. It owns the
// call arena; its driver D owns the event source, timing, and routing.
// Every entry point takes its virtual instant as an argument.
type Machine[T any, D Driver[T]] struct {
	d      D
	rng    *sim.Rand // breaker probe admission: the driver's routing stream
	sink   obs.Sink  // nil = unobserved: every emission is one branch
	routes []*Route
	calls  []call[T]
	idle   []int32
}

// NewMachine binds a machine to its driver.
func NewMachine[T any, D Driver[T]](d D) Machine[T, D] { return Machine[T, D]{d: d} }

// SetRand points breaker probe admission at the driver's seeded
// routing stream.
func (m *Machine[T, D]) SetRand(rng *sim.Rand) { m.rng = rng }

// Observe points trace records at sink and, when rec is non-nil, labels
// each route's track with its name. Span pairing rides the attempt's
// job id (slot|gen|attempt), so begin/end records match without any
// lookup.
func (m *Machine[T, D]) Observe(sink obs.Sink, rec *obs.Recorder) {
	m.sink = sink
	if rec != nil {
		for _, r := range m.routes {
			rec.Label(obs.LayerIngress, uint32(r.idx), r.name)
		}
	}
}

// AddRoute creates the next route under pol (normalized here) into the
// replica set whose shared state is pool. pool may be nil for a
// bookkeeping-only route, one no call is ever started on.
func (m *Machine[T, D]) AddRoute(name string, pol RoutePolicy, pool *Pool) *Route {
	r := &Route{name: name, idx: int32(len(m.routes)), pol: pol.normalized(), pool: pool}
	r.br = newBreaker(r.pol)
	m.routes = append(m.routes, r)
	return r
}

// emit records one ingress trace event on track. It inlines to one
// branch, so an unobserved machine (nil sink) pays nothing more.
func emit(s obs.Sink, at cycles.Cycles, kind obs.Kind, name uint16, track int32, a, b uint64) {
	if s != nil {
		emitTo(s, at, kind, name, track, a, b)
	}
}

func emitTo(s obs.Sink, at cycles.Cycles, kind obs.Kind, name uint16, track int32, a, b uint64) {
	s.Emit(at, obs.Key(kind, obs.LayerIngress, name, uint32(track)), a, b)
}

// Start opens a call on route r at now and issues its first attempt,
// unless the breaker or the shed valve fails it fast.
func (m *Machine[T, D]) Start(r *Route, tag T, now cycles.Cycles) {
	ri := r.idx
	r.calls++
	if r.pol.RetryBudget > 0 {
		r.budget = min(r.budget+r.pol.RetryBudget, retryBudgetCap)
		emit(m.sink, now, obs.KindCounter, obs.NameBudget, ri, uint64(r.budget*1000), 0)
	}
	slot := m.alloc()
	c := &m.calls[slot]
	// Field stores, not a composite literal: the literal goes through a
	// stack temporary whose narrow stores stall the wide copy-out.
	c.tag, c.born, c.route, c.state = tag, now, ri, stateRacing
	c.attempt, c.retries, c.hedgeIdx, c.liveMask = 0, 0, noHedge, 0
	c.pendRetry, c.brSkip, c.lastBE = false, false, -1
	switch {
	case r.br != nil && !r.br.Admit(now, m.rng):
		m.failFast(slot, now)
	case r.pol.ShedDepth > 0 && m.d.Overloaded(ri, r.pol.ShedDepth):
		r.shed++
		m.failFast(slot, now)
	default:
		m.issue(slot, now)
	}
}

// failFast fails a call that never reached a replica — breaker, shed,
// no backend — so its outcome stays out of the breaker window.
func (m *Machine[T, D]) failFast(slot int32, now cycles.Cycles) {
	c := &m.calls[slot]
	c.brSkip = true
	m.d.Fail(encodeID(kindFail, slot, c.gen, 0), now)
}

// issue routes the call's next attempt. Only the paths with no live
// attempt (first attempt, retry) issue, so with nothing routable the
// call fails.
func (m *Machine[T, D]) issue(slot int32, now cycles.Cycles) {
	c := &m.calls[slot]
	bi := m.d.Pick(c.route)
	if bi < 0 {
		m.routes[c.route].noBackend++
		m.failFast(slot, now)
		return
	}
	m.send(slot, bi, now)
}

// send commits one attempt to replica bi and arms its timeout and, on
// the first attempt, the hedge.
func (m *Machine[T, D]) send(slot int32, bi int, now cycles.Cycles) {
	c := &m.calls[slot]
	r := m.routes[c.route]
	k := c.attempt
	c.attempt++
	c.liveMask |= 1 << k
	c.lastBE = int32(bi)
	id := encodeID(kindAttempt, slot, c.gen, k)
	emit(m.sink, now, obs.KindSpanBegin, obs.NameAttempt, r.idx, id, 0)
	m.d.Send(r.idx, bi, id, now)
	if r.pol.Timeout > 0 {
		m.d.Arm(TimeoutTimer, encodeID(kindTimeout, slot, c.gen, k), now, r.pol.Timeout)
	}
	if k == 0 {
		if d := r.hedgeDelay(); d > 0 {
			m.d.Arm(HedgeTimer, encodeID(kindHedge, slot, c.gen, 0), now, d)
		}
	}
}

// lookup decodes an attempt id: valid reports that this machine issued
// it, live that its call is still racing and waiting for it.
func (m *Machine[T, D]) lookup(id uint64) (slot int32, k uint8, valid, live bool) {
	kind, slot, gen, k := decodeID(id)
	if kind != kindAttempt || int(slot) >= len(m.calls) {
		return slot, k, false, false
	}
	c := &m.calls[slot]
	return slot, k, true, c.gen == gen && c.state == stateRacing && c.liveMask&(1<<k) != 0
}

// Resolve finds the live call a finished attempt j answers at `at`. A
// completion nobody waits for any more — the call timed out, was
// retried elsewhere, or a hedge twin won — is wasted capacity of pool,
// and ok is false.
func (m *Machine[T, D]) Resolve(j *sim.Job, at cycles.Cycles, pool *Pool) (slot int32, ok bool) {
	slot, _, valid, live := m.lookup(j.ID)
	if live {
		return slot, true
	}
	if valid {
		// The loser's span ends flagged wasted (B = 1). Its call slot
		// may already serve another request, so the route is
		// unattributable — waste lands on track 0, service-level. (A
		// job the machine never issued, injected straight into a
		// shared queue, has no span at all.)
		emit(m.sink, at, obs.KindSpanEnd, obs.NameAttempt, 0, j.ID, 1)
	}
	m.waste(pool, j, at)
	return slot, false
}

func (m *Machine[T, D]) waste(p *Pool, j *sim.Job, at cycles.Cycles) {
	p.wasted++
	p.wastedCycles += j.Cost
	p.wastedLat.Observe(at - j.Born)
	emit(m.sink, at, obs.KindCounter, obs.NameWasted, 0, uint64(at-j.Born), 0)
}

// abandon wastes live attempt j because its caller no longer needs any
// answer, and fails the call without letting it start more work.
func (m *Machine[T, D]) abandon(slot int32, j *sim.Job, at cycles.Cycles) {
	c := &m.calls[slot]
	r := m.routes[c.route]
	emit(m.sink, at, obs.KindSpanEnd, obs.NameAttempt, r.idx, j.ID, 1)
	m.waste(r.pool, j, at)
	c.liveMask = 0
	m.Finish(slot, at, false)
}

// Answer delivers live attempt j's response at `at` and reports whether
// it won the call. An erred response (a gray failure: the replica
// burned the cycles but answered with an error) dies like a timeout,
// and the call retries or fails under its policy. A win moves the call
// to its subtree; the driver finishes it or runs what it starts.
func (m *Machine[T, D]) Answer(slot int32, j *sim.Job, at cycles.Cycles, erred bool) bool {
	c := &m.calls[slot]
	r := m.routes[c.route]
	_, _, _, k := decodeID(j.ID)
	if erred {
		r.errors++
		emit(m.sink, at, obs.KindSpanEnd, obs.NameAttempt, r.idx, j.ID, 3)
		m.kill(slot, k, at)
		return false
	}
	r.pool.attemptLat.Observe(at - j.Born)
	emit(m.sink, at, obs.KindSpanEnd, obs.NameAttempt, r.idx, j.ID, 0)
	if k == c.hedgeIdx {
		r.hedgeWins++
	}
	c.liveMask = 0
	c.state = stateSubtree
	return true
}

// Lost reports that queued attempt id was dropped before service (a
// crashed node's backlog): the attempt dies at `at` as if its timeout
// had fired.
func (m *Machine[T, D]) Lost(id uint64, at cycles.Cycles) {
	slot, k, _, live := m.lookup(id)
	if !live {
		return
	}
	r := m.routes[m.calls[slot].route]
	r.lost++
	// The span ends flagged lost (B = 2): no completion will close it.
	emit(m.sink, at, obs.KindSpanEnd, obs.NameAttempt, r.idx, id, 2)
	m.kill(slot, k, at)
}

// kill ends attempt k; when no attempt is left racing and no retry is
// pending, the retry ladder decides the call's fate.
func (m *Machine[T, D]) kill(slot int32, k uint8, at cycles.Cycles) {
	c := &m.calls[slot]
	c.liveMask &^= 1 << k
	if c.liveMask == 0 && !c.pendRetry {
		m.retry(slot, at)
	}
}

// Fire dispatches timer or fast-failure id, due at `at`; an attempt it
// issues goes out at now (a batching driver decides at the event's
// instant but issues at its barrier). Every branch re-validates
// generation and state: by the time a timer fires, its call may have
// completed, failed, or been reused.
func (m *Machine[T, D]) Fire(id uint64, at, now cycles.Cycles) {
	kind, slot, gen, k := decodeID(id)
	c := &m.calls[slot]
	if c.gen != gen || c.state != stateRacing {
		return
	}
	r := m.routes[c.route]
	switch kind {
	case kindTimeout:
		if c.liveMask&(1<<k) == 0 {
			return
		}
		r.timeouts++
		emit(m.sink, at, obs.KindInstant, obs.NameTimeout, r.idx, encodeID(kindAttempt, slot, gen, k), 0)
		m.kill(slot, k, at)
	case kindRetry:
		if !c.pendRetry {
			return
		}
		c.pendRetry = false
		m.issue(slot, now)
	case kindHedge:
		if c.hedgeIdx != noHedge || c.liveMask == 0 {
			return // already hedged, or primary gone (retry pending)
		}
		bi := m.d.PickOther(r.idx, int(c.lastBE))
		if bi < 0 {
			return // nothing to hedge to; the primary races on alone
		}
		c.hedgeIdx = c.attempt
		r.hedges++
		emit(m.sink, at, obs.KindInstant, obs.NameHedge, r.idx, encodeID(kindAttempt, slot, gen, c.attempt), 0)
		m.send(slot, bi, now)
	case kindFail:
		m.Finish(slot, now, false)
	}
}

// retry decides a call's fate after its last live attempt died: retry
// under the ladder and budget, or fail.
func (m *Machine[T, D]) retry(slot int32, at cycles.Cycles) {
	c := &m.calls[slot]
	r := m.routes[c.route]
	if int(c.retries) >= r.pol.Retries {
		m.Finish(slot, at, false)
		return
	}
	if r.pol.RetryBudget > 0 {
		if r.budget < 1 {
			r.budgetDenied++
			emit(m.sink, at, obs.KindInstant, obs.NameBudgetDenied, r.idx, uint64(uint32(slot)), 0)
			m.Finish(slot, at, false)
			return
		}
		r.budget--
	}
	c.retries++
	r.retries++
	emit(m.sink, at, obs.KindInstant, obs.NameRetry, r.idx, encodeID(kindAttempt, slot, c.gen, c.retries), 0)
	if r.pol.RetryBudget > 0 {
		emit(m.sink, at, obs.KindCounter, obs.NameBudget, r.idx, uint64(r.budget*1000), 0)
	}
	c.pendRetry = true
	backoff := min(r.pol.Backoff<<(c.retries-1), r.pol.BackoffCap)
	m.d.Arm(RetryTimer, encodeID(kindRetry, slot, c.gen, 0), at, backoff)
}

// Finish completes the call in slot at `at`, success or failure: the
// outcome feeds the breaker (unless the call never reached a replica)
// and the route's accounting, the slot is freed, and the driver's Done
// propagates the result.
func (m *Machine[T, D]) Finish(slot int32, at cycles.Cycles, ok bool) {
	c := &m.calls[slot]
	r := m.routes[c.route]
	if r.br != nil && !c.brSkip {
		r.br.Report(at, ok)
	}
	r.Settle(ok, at-c.born)
	tag, born := c.tag, c.born
	c.state = stateFree
	c.gen = (c.gen + 1) & idGenMask
	m.idle = append(m.idle, slot)
	m.d.Done(r.idx, tag, born, at, ok)
}

// alloc claims a call slot; generations distinguish reuses.
func (m *Machine[T, D]) alloc() int32 {
	if n := len(m.idle); n > 0 {
		slot := m.idle[n-1]
		m.idle = m.idle[:n-1]
		return slot
	}
	m.calls = append(m.calls, call[T]{})
	return int32(len(m.calls) - 1)
}
