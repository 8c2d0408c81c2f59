package ingress

import (
	"xcontainers/internal/cycles"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// link is a graph call's tag in the call machine: the frame awaiting
// the call (-1 at the root) and, for root calls, the traffic source's
// request id.
type link struct {
	parent    int32
	parentGen uint32 // the frame's generation at issue
	client    uint64
}

// frame is one activation of a service's outgoing edges on behalf of a
// winning call: the cursor of a sequential chain or the join counter
// of a fan-out. Frames live in a slot arena with a free list, and
// generations distinguish reuses, like calls.
type frame struct {
	gen     uint32
	callRef int32 // owning call slot
	svc     int32
	next    int32 // sequential: index of the edge in flight
	pending int32 // fan-out: children not yet joined
	failed  bool
}

// Graph is a service graph on one engine: services, edges, the client
// entry route, the call machine every request tree's calls race in,
// and the frames that join them. It implements sim.Handler for the
// machine's timer events.
type Graph struct {
	eng *sim.Engine
	rng *sim.Rand
	ref sim.HandlerRef
	m   Machine[link, graphDriver]

	services []*Service
	edges    []*Edge
	entry    *Edge

	frames    []frame
	frameFree []int32

	// OnRootDone, when set, observes every root-call completion: the
	// request id, end-to-end latency, and whether the request
	// succeeded. Closed-loop drivers re-admit from here.
	OnRootDone func(client uint64, lat cycles.Cycles, ok bool)

	admitted uint64
	served   uint64
	failed   uint64
}

// NewGraph creates an empty graph on eng with its own seeded random
// stream (load-balancer sampling, breaker probes, and cache coins).
func NewGraph(eng *sim.Engine, seed uint64) *Graph {
	g := &Graph{eng: eng}
	g.m = NewMachine[link](graphDriver{g})
	g.Reseed(seed)
	g.ref = eng.Register(g)
	return g
}

// AddService adds a named service with the given downstream call mode.
func (g *Graph) AddService(name string, mode CallMode) *Service {
	s := &Service{g: g, idx: int32(len(g.services)), name: name, mode: mode}
	g.services = append(g.services, s)
	return s
}

// Connect routes calls from one service into another under pol. hit is
// the edge's cache behaviour (see Edge.hit); 0 for a hard dependency.
func (g *Graph) Connect(from, to *Service, pol RoutePolicy, hit float64) *Edge {
	e := g.addEdge(from.name, to, pol)
	e.from, e.hit = from, hit
	from.edges = append(from.edges, e)
	return e
}

// SetEntry installs the client→root route every admitted request
// enters through, replacing any previous entry.
func (g *Graph) SetEntry(root *Service, pol RoutePolicy) *Edge {
	g.entry = g.addEdge("client", root, pol)
	return g.entry
}

func (g *Graph) addEdge(from string, to *Service, pol RoutePolicy) *Edge {
	e := &Edge{Route: g.m.AddRoute(from+"->"+to.name, pol, &to.pool), g: g, to: to}
	g.edges = append(g.edges, e)
	return e
}

// Entry returns the client→root edge.
func (g *Graph) Entry() *Edge { return g.entry }

// Reseed replaces the graph's random stream. Orchestrators build the
// topology at construction time but only learn the run's seed at
// traffic time; Reseed before the first Admit keeps runs reproducible.
func (g *Graph) Reseed(seed uint64) {
	g.rng = sim.NewRand(seed)
	g.m.SetRand(g.rng)
}

// Observe points the graph's trace instrumentation at sink and, when
// rec is non-nil, labels each edge's track with its route name. Call
// after the topology is complete and before traffic; a nil sink turns
// instrumentation back off. Records: request and attempt spans on
// per-edge tracks, robustness instants (timeout, retry, hedge, budget
// denial), and retry-budget counters.
func (g *Graph) Observe(sink obs.Sink, rec *obs.Recorder) { g.m.Observe(sink, rec) }

// Admitted, Served, and Failed count root requests: admitted into the
// graph, completed successfully (goodput), and completed failed.
func (g *Graph) Admitted() uint64 { return g.admitted }
func (g *Graph) Served() uint64   { return g.served }
func (g *Graph) Failed() uint64   { return g.failed }

// Admit injects one client request at the current virtual instant.
func (g *Graph) Admit(client uint64) {
	g.admitted++
	now := g.eng.Now()
	emit(g.m.sink, now, obs.KindSpanBegin, obs.NameRequest, g.entry.idx, client, 0)
	g.m.Start(g.entry.Route, link{parent: -1, client: client}, now)
}

// graphDriver is the graph's side of the call machine's seam: timers
// and deferred failures are events on the graph's engine, attempts
// enqueue at the edge target's replica queues.
type graphDriver struct{ g *Graph }

func (d graphDriver) Pick(r int32) int                   { return d.g.edges[r].pick() }
func (d graphDriver) PickOther(r int32, avoid int) int   { return d.g.edges[r].pickOther(avoid) }
func (d graphDriver) Overloaded(r int32, depth int) bool { return d.g.edges[r].overloaded(depth) }

func (d graphDriver) Send(r int32, bi int, id uint64, at cycles.Cycles) {
	e := d.g.edges[r]
	if b := e.to.backends[bi]; !b.unreachable {
		b.q.Arrive(sim.Job{ID: id, Cost: b.cost + e.Handshake(&b.kaLeft), Born: at})
	}
}

func (d graphDriver) Arm(_ Timer, id uint64, _, delay cycles.Cycles) {
	d.g.eng.Schedule(delay, d.g.ref, sim.Job{ID: id})
}

// Fail defers through the event loop: failing synchronously would
// re-enter the parent frame mid-issue.
func (d graphDriver) Fail(id uint64, _ cycles.Cycles) {
	d.g.eng.Schedule(0, d.g.ref, sim.Job{ID: id})
}

// Done propagates a finished call to its parent frame or, at the root,
// to the traffic source.
func (d graphDriver) Done(r int32, t link, born, at cycles.Cycles, ok bool) {
	g := d.g
	if t.parent >= 0 {
		g.frameChildDone(t.parent, t.parentGen, g.edges[r], ok)
		return
	}
	var fail uint64
	if ok {
		g.served++
	} else {
		g.failed++
		fail = 1
	}
	emit(g.m.sink, at, obs.KindSpanEnd, obs.NameRequest, r, t.client, fail)
	if g.OnRootDone != nil {
		g.OnRootDone(t.client, at-born, ok)
	}
}

// HandleEvent fires the call machine's timers and deferred failures.
func (g *Graph) HandleEvent(_ *sim.Engine, j sim.Job) {
	now := g.eng.Now()
	g.m.Fire(j.ID, now, now)
}

// AttemptLost reports that a queued attempt was dropped before service
// (a crashed node's backlog): the attempt dies immediately, as if its
// timeout had fired, and the call retries or fails under its policy.
func (g *Graph) AttemptLost(j sim.Job) { g.m.Lost(j.ID, g.eng.Now()) }

// attemptDone is every backend queue's completion hook: j finished at
// replica bi of s. If the call is still racing and this attempt is
// live, the response wins; otherwise the cycles were wasted — the
// request timed out, was retried elsewhere, or a hedge twin won.
func (g *Graph) attemptDone(s *Service, bi int, j sim.Job) {
	s.completions++
	now := g.eng.Now()
	slot, live := g.m.Resolve(&j, now, &s.pool)
	if !live {
		return
	}
	if t := &g.m.calls[slot].tag; t.parent >= 0 {
		if f := &g.frames[t.parent]; f.gen != t.parentGen || f.failed {
			// The caller's frame already failed (a sibling hard
			// dependency died) or moved on: this completion bought
			// nothing, and a doomed fan-out must not fan further work
			// out.
			g.m.abandon(slot, &j, now)
			return
		}
	}
	// The gray-failure coin is drawn only for a live attempt whose
	// caller still waits, from the replica's private stream.
	b := s.backends[bi]
	if !g.m.Answer(slot, &j, now, b.errRate > 0 && b.errRng.Float64() < b.errRate) {
		return
	}
	if len(s.edges) == 0 {
		g.m.Finish(slot, now, true)
		return
	}
	g.openFrame(slot, s)
}

// openFrame starts the winning call's downstream edges.
func (g *Graph) openFrame(callSlot int32, svc *Service) {
	fslot := g.allocFrame()
	f := &g.frames[fslot]
	fgen := f.gen
	f.callRef = callSlot
	f.svc = svc.idx
	f.next = 0
	f.pending = 0
	f.failed = false
	now := g.eng.Now()
	switch svc.mode {
	case Sequential:
		g.m.Start(svc.edges[0].Route, link{parent: fslot, parentGen: fgen}, now)
	case FanOut:
		// Draw every skip coin before issuing so a child cannot join
		// (asynchronously) against a half-counted pending.
		var issue uint64
		for i, e := range svc.edges {
			if e.hit > 0 && g.rng.Float64() < e.hit {
				continue
			}
			issue |= 1 << uint(i)
			f.pending++
		}
		if f.pending == 0 {
			g.finishFrame(fslot)
			return
		}
		for i, e := range svc.edges {
			if issue&(1<<uint(i)) != 0 {
				g.m.Start(e.Route, link{parent: fslot, parentGen: fgen}, now)
			}
		}
	}
}

// frameChildDone joins one finished child call into its frame.
func (g *Graph) frameChildDone(fslot int32, fgen uint32, childEdge *Edge, ok bool) {
	f := &g.frames[fslot]
	if f.gen != fgen {
		return
	}
	svc := g.services[f.svc]
	soft := childEdge.hit > 0 // degraded cache, not a hard dependency
	switch svc.mode {
	case Sequential:
		if !ok && !soft {
			f.failed = true
			g.finishFrame(fslot)
			return
		}
		if ok && soft && g.rng.Float64() < childEdge.hit {
			g.finishFrame(fslot) // tiered-cache hit short-circuits the rest
			return
		}
		f.next++
		if int(f.next) < len(svc.edges) {
			g.m.Start(svc.edges[f.next].Route, link{parent: fslot, parentGen: fgen}, g.eng.Now())
			return
		}
		g.finishFrame(fslot)
	case FanOut:
		if !ok && !soft {
			f.failed = true
		}
		f.pending--
		if f.pending == 0 {
			g.finishFrame(fslot)
		}
	}
}

// finishFrame completes the frame's owning call.
func (g *Graph) finishFrame(fslot int32) {
	f := &g.frames[fslot]
	callSlot, ok := f.callRef, !f.failed
	g.freeFrame(fslot)
	g.m.Finish(callSlot, g.eng.Now(), ok)
}

func (g *Graph) allocFrame() int32 {
	if n := len(g.frameFree); n > 0 {
		slot := g.frameFree[n-1]
		g.frameFree = g.frameFree[:n-1]
		return slot
	}
	g.frames = append(g.frames, frame{})
	return int32(len(g.frames) - 1)
}

func (g *Graph) freeFrame(slot int32) {
	f := &g.frames[slot]
	f.gen = (f.gen + 1) & idGenMask
	g.frameFree = append(g.frameFree, slot)
}
