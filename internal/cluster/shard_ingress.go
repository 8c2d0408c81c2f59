package cluster

import (
	"cmp"
	"slices"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// fleetIngress is the sharded engine's driver of the ingress call
// machine: the same two-hop topology the single engine builds as an
// ingress.Graph (client → proxy service → fleet service), driven at
// epoch barriers so a 10k-replica fleet needs no central engine. The
// proxy queue lives on shard 0 and serves mid-epoch; everything
// cross-replica — routing an attempt, deciding a timeout, issuing a
// retry or hedge, completing a call — happens at barriers, in canonical
// event order, against the epoch route table.
//
// The call/attempt machine itself is internal/ingress's; what differs
// from the graph driver is deliberate and independent of the shard
// count:
//   - timing is epoch-quantized: events are decided at their own
//     instant but attempts issue at the barrier instant;
//   - at one instant timers fire before completions (a deadline that
//     lands exactly on a completion beats it), one fixed rule instead
//     of the single engine's schedule-order race;
//   - fast failures (breaker, shed, no backend) complete inline: a
//     barrier processes a flat batch, so there is no frame to re-enter.
//
// Steady state allocates nothing: calls live in the machine's slot
// arena, timers in a hand-rolled min-heap, and the per-epoch event
// batch reuses one buffer.

// fleetTag is a fleet call's driver state: the client request it
// serves and that request's admission instant, the root latency base.
type fleetTag struct {
	client uint64
	born   cycles.Cycles
}

// Barrier event kinds, in tie-break order at one instant: the
// machine's timers in ingress.Timer order, then proxy completions, then
// fleet attempt completions.
const (
	fiEvProxyDone = uint8(ingress.RetryTimer) + 1 + iota
	fiEvFleetDone
)

// fiTimer is one pending machine timer; heap-ordered by due time only
// (the per-epoch batch re-sorts canonically, so heap pop order within
// one instant is irrelevant).
type fiTimer struct {
	due  cycles.Cycles
	id   uint64
	kind uint8
}

// fiEvent is one entry of a barrier's canonical batch. Completions are
// buffered as events where they happen — proxy completions on shard 0,
// fleet attempt completions on the owning shard — until the barrier.
type fiEvent struct {
	at    cycles.Cycles
	kind  uint8
	erred bool   // fleetDone: the replica answered with an error
	order uint64 // ingress.CallOrder of a machine event
	id    uint64 // machine event id, or proxyDone's client request id
	cost  cycles.Cycles
	born  cycles.Cycles
}

type fleetIngress struct {
	c *Cluster
	m ingress.Machine[fleetTag, *fleetIngress]

	route *ingress.Route // ingress->fleet: every call races here
	entry *ingress.Route // client->ingress: bookkeeping only
	pool  ingress.Pool   // the fleet's hedge latencies and wasted work

	proxyQ         *sim.Queue
	proxyCost      cycles.Cycles
	proxyKA        int32 // entry keep-alive countdown on the proxy replica
	proxyCompleted uint64
	kaLeft         []int32 // fleet keep-alive countdown per replica

	timers []fiTimer
	pdone  []fiEvent // proxy completions this epoch
	events []fiEvent
}

func newFleetIngress(c *Cluster) *fleetIngress {
	route, entry, cores := c.ingressPolicies()
	fi := &fleetIngress{c: c, proxyCost: ingress.ProxyRequestCost(c.arch.rt)}
	fi.m = ingress.NewMachine[fleetTag](fi)
	// Route order is buildIngress's edge order, so track ids agree:
	// 0 = ingress->fleet (Connect), 1 = client->ingress (SetEntry).
	fi.route = fi.m.AddRoute("ingress->fleet", route, &fi.pool)
	fi.entry = fi.m.AddRoute("client->ingress", entry, nil)
	fi.proxyQ = sim.NewQueue(c.sh.engines[0], "ingress", cores)
	eng := c.sh.engines[0]
	fi.proxyQ.OnDone = func(j sim.Job) {
		fi.proxyCompleted++
		fi.pdone = append(fi.pdone, fiEvent{at: eng.Now(), kind: fiEvProxyDone, id: j.ID, born: j.Born})
	}
	// Fleet routing follows the route's balancer instead of the plain
	// front door's JSQ.
	c.sh.table.lb = route.LB
	if c.ob != nil {
		// The proxy queue emits into shard 0's outbox — it serves
		// mid-epoch there, and barrier-time admissions are serialized
		// by the worker handshake.
		fi.m.Observe(c.ob.cen, c.ob.rec)
		c.ob.traceQueue(fi.proxyQ, c.sh.shards[0].ob, 0, "ingress")
	}
	return fi
}

// clientArrive is the entry edge: client request id arrives at born;
// charge the connection regime and the proxy hop. It runs either
// mid-epoch on shard 0 (open-loop arrivals through the sink) or at a
// barrier (closed-loop seeding and re-issue; shard 0's engine is
// parked, so the proxy queue accepts directly) — both touch only
// shard-0 state.
func (fi *fleetIngress) clientArrive(id uint64, born cycles.Cycles) {
	fi.entry.Open()
	if o := fi.c.ob; o != nil {
		// The request span opens on the entry track; mid-epoch arrivals
		// run on shard 0's goroutine, so the record goes to its outbox.
		fi.c.sh.shards[0].ob.Emit(born,
			obs.Key(obs.KindSpanBegin, obs.LayerIngress, obs.NameRequest, 1), id, 0)
	}
	cost := fi.proxyCost + fi.entry.Handshake(&fi.proxyKA)
	fi.proxyQ.Arrive(sim.Job{ID: id, Cost: cost, Born: born})
}

// processEpoch is the barrier phase: merge the epoch's proxy
// completions, fleet attempt completions, and due timers into one
// canonical batch and process it. The sort key (at, kind, call order,
// id) is a total order over distinct events, so the batch — and
// therefore every routing, retry, and hedging decision — is identical
// for any shard layout.
func (fi *fleetIngress) processEpoch() {
	now := fi.c.sh.now
	ev := append(fi.events[:0], fi.pdone...)
	fi.pdone = fi.pdone[:0]
	for i := range fi.c.sh.shards {
		ss := &fi.c.sh.shards[i]
		ev = append(ev, ss.fdone...)
		ss.fdone = ss.fdone[:0]
	}
	for len(fi.timers) > 0 && fi.timers[0].due <= now {
		t := fi.popTimer()
		ev = append(ev, fiEvent{at: t.due, kind: t.kind, order: ingress.CallOrder(t.id), id: t.id})
	}
	slices.SortFunc(ev, func(a, b fiEvent) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.kind != b.kind:
			return cmp.Compare(a.kind, b.kind)
		case a.order != b.order:
			return cmp.Compare(a.order, b.order)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := range ev {
		e := &ev[i]
		switch e.kind {
		case fiEvProxyDone:
			fi.m.Start(fi.route, fleetTag{client: e.id, born: e.born}, now)
		case fiEvFleetDone:
			j := sim.Job{ID: e.id, Cost: e.cost, Born: e.born}
			if slot, live := fi.m.Resolve(&j, e.at, &fi.pool); live && fi.m.Answer(slot, &j, e.at, e.erred) {
				fi.m.Finish(slot, e.at, true)
			}
		default:
			fi.m.Fire(e.id, e.at, now)
		}
	}
	fi.events = ev[:0]
}

// Pick, PickOther, and Overloaded route against the epoch table.
func (fi *fleetIngress) Pick(int32) int                   { return fi.c.sh.table.pick() }
func (fi *fleetIngress) PickOther(_ int32, avoid int) int { return fi.c.sh.table.pickOther(avoid) }

// Overloaded is the shed predicate against the epoch route table: total
// effective depth (barrier snapshot + this barrier's assignments) over
// the routable fleet exceeds depth per replica.
func (fi *fleetIngress) Overloaded(_ int32, depth int) bool {
	t := fi.c.sh.table
	total := 0
	for _, i := range t.ups {
		total += int(t.depth[i])
	}
	return len(t.ups) > 0 && total > depth*len(t.ups)
}

// Send enqueues an attempt at a fleet replica at the barrier instant;
// shard engines are parked, so the queue accepts directly.
func (fi *fleetIngress) Send(_ int32, bi int, id uint64, at cycles.Cycles) {
	ct := fi.c.containers[bi]
	if ct.partitioned {
		return
	}
	for len(fi.kaLeft) <= bi {
		fi.kaLeft = append(fi.kaLeft, 0)
	}
	cost := fi.c.costOf(ct) + fi.route.Handshake(&fi.kaLeft[bi])
	ct.q.Arrive(sim.Job{ID: id, Cost: cost, Born: at})
}

// Arm queues a machine timer on the fleet's heap; the first barrier at
// or after its due instant fires it.
func (fi *fleetIngress) Arm(t ingress.Timer, id uint64, at, delay cycles.Cycles) {
	fi.pushTimer(fiTimer{due: at + delay, id: id, kind: uint8(t)})
}

// Fail completes a fast-failed call inline.
func (fi *fleetIngress) Fail(id uint64, at cycles.Cycles) { fi.m.Fire(id, at, at) }

// Done finishes the client request: entry-route accounting, the
// cluster's fleet statistics, and the closed-loop re-issue — the
// sharded counterpart of Cluster.rootDone.
func (fi *fleetIngress) Done(_ int32, t fleetTag, _, at cycles.Cycles, ok bool) {
	c := fi.c
	lat := at - t.born
	fi.entry.Settle(ok, lat)
	c.settleRequest(at, lat, ok)
	if o := c.ob; o != nil {
		var fail uint64
		if !ok {
			fail = 1
		}
		o.cen.Emit(at,
			obs.Key(obs.KindSpanEnd, obs.LayerIngress, obs.NameRequest, 1), t.client, fail)
	}
	if c.closedLoop && c.sh.now < c.horizon {
		fi.clientArrive(t.client, c.sh.now)
	}
}

// routeStats reports the ingress->fleet route, then the client entry
// route (Connect before SetEntry, as buildIngress orders them).
func (fi *fleetIngress) routeStats() []ingress.RouteStats {
	return []ingress.RouteStats{fi.route.Stats(), fi.entry.Stats()}
}

// serviceStats reports the proxy service, then the fleet service
// averaged over every replica ever placed (retired ones included, like
// the graph's backend list).
func (fi *fleetIngress) serviceStats(horizon cycles.Cycles) []ingress.ServiceStats {
	var fleetCompl uint64
	for i := range fi.c.sh.shards {
		fleetCompl += fi.c.sh.shards[i].fleetCompleted
	}
	return []ingress.ServiceStats{
		(&ingress.Pool{}).ServiceStats("ingress", fi.proxyCompleted, horizon, 1,
			func(int) *sim.Queue { return fi.proxyQ }),
		fi.pool.ServiceStats("fleet", fleetCompl, horizon, len(fi.c.containers),
			func(i int) *sim.Queue { return fi.c.containers[i].q }),
	}
}

// --- timer heap (min by due) ---

func (fi *fleetIngress) pushTimer(t fiTimer) {
	fi.timers = append(fi.timers, t)
	i := len(fi.timers) - 1
	for i > 0 {
		p := (i - 1) / 2
		if fi.timers[p].due <= fi.timers[i].due {
			break
		}
		fi.timers[p], fi.timers[i] = fi.timers[i], fi.timers[p]
		i = p
	}
}

func (fi *fleetIngress) popTimer() fiTimer {
	top := fi.timers[0]
	n := len(fi.timers) - 1
	fi.timers[0] = fi.timers[n]
	fi.timers = fi.timers[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && fi.timers[l].due < fi.timers[small].due {
			small = l
		}
		if r < n && fi.timers[r].due < fi.timers[small].due {
			small = r
		}
		if small == i {
			break
		}
		fi.timers[i], fi.timers[small] = fi.timers[small], fi.timers[i]
		i = small
	}
	return top
}
