package cluster

import (
	"runtime"

	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/obs"
	"xcontainers/internal/sim"
)

// The sharded engine splits one cluster run across per-shard
// sim.Engines that advance in parallel between epoch barriers, with
// every cross-replica decision applied at barriers in one canonical
// order. The result is byte-identical for any shard count >= 1 and any
// worker count, because:
//
//   - Replica state is shard-confined between barriers. A replica's
//     queue events depend only on its own arrival/completion/freeze
//     order, and every instant at which something is scheduled for a
//     replica — a barrier decision or one of its own in-epoch events —
//     is itself independent of the shard layout. Cross-shard
//     interleaving on a shared engine touches disjoint state.
//   - Everything cross-replica (front-door routing, closed-loop
//     re-issue, ingress attempts, autoscaling, failure injection,
//     migration) happens only at barriers, on buffered records merged
//     into a canonical (time, replica) order.
//   - Merged statistics are order-insensitive (histogram counts,
//     integer cycle sums) or computed centrally in canonical order
//     (root latencies behind ingress); per-shard float accumulation
//     sums are never read.
//
// The trade against the single engine (Shards == 0) is quantization:
// routing sees queue depths as of the last barrier, and control
// decisions batch at barriers. EpochUS tunes that fidelity — it is a
// model parameter, so results depend on it, never on Shards.

// shardState is one shard's mutable accumulator set. Between barriers
// it is touched only by the goroutine driving its engine; barriers fold
// it from the coordinating goroutine (the worker handshake orders the
// accesses).
type shardState struct {
	eng  *sim.Engine
	sink sim.HandlerRef

	fleet sim.Histogram // cumulative root latencies (plain front door)
	win   sim.Histogram // since the last barrier; merged + reset there

	latSum    uint64 // exact integer latency total — the fleet mean's numerator
	latN      uint64
	completed uint64
	erred     uint64 // gray-failure errors since the last barrier

	fleetCompleted uint64 // ingress: attempts completed at this shard's replicas

	// done holds the epoch's plain closed-loop completions. The engine
	// appends them in firing order; the goroutine that ran the epoch
	// then orders the run by (time, replica) (orderRun), and the
	// barrier merges the shards' runs.
	done  []doneRec
	fdone []fiEvent // ingress attempt completions this epoch

	// ob is the shard's trace outbox (nil = observability off): records
	// emitted on this shard's goroutine between barriers, drained and
	// canonically merged at the next barrier (see clusterObs.drain).
	ob *obs.Buffer

	// acc aggregates this shard's completions into windowed series
	// state in parallel (nil = observability off); barriers fold sealed
	// windows into the central sampler.
	acc *servedAcc
}

// arrivalSink delivers centrally generated arrivals on a shard's
// engine: plain requests carry their routed replica in Stage; Stage -1
// is an ingress client arrival (always on shard 0, where the proxy
// lives).
type arrivalSink struct{ c *Cluster }

func (a *arrivalSink) HandleEvent(_ *sim.Engine, j sim.Job) {
	if j.Stage < 0 {
		a.c.sh.fi.clientArrive(j.ID, j.Born)
		return
	}
	a.c.containers[j.Stage].q.Arrive(j)
}

// shardRun coordinates one sharded execution: the barrier loop, the
// worker pool, the centrally generated arrival stream, and the epoch
// outboxes.
type shardRun struct {
	c       *Cluster
	engines []*sim.Engine
	shards  []shardState
	table   *fleetTable
	fi      *fleetIngress

	now   cycles.Cycles
	epoch cycles.Cycles

	controlDue cycles.Cycles // 0 = no further control evaluations

	arr     sim.Arrivals
	arrRng  *sim.Rand
	nextArr cycles.Cycles
	arrOn   bool
	nextID  uint64

	collectDone bool // buffer completions for closed-loop re-issue

	merge doneMerge // the barrier's k-way merge of the shards' done runs

	workers int
	work    chan int32
	ack     chan struct{}
	target  cycles.Cycles
}

func newShardRun(c *Cluster, shards int) *shardRun {
	s := &shardRun{
		c:       c,
		engines: make([]*sim.Engine, shards),
		shards:  make([]shardState, shards),
		merge:   newDoneMerge(shards),
	}
	sink := &arrivalSink{c: c}
	for i := range s.engines {
		e := sim.NewEngine()
		s.engines[i] = e
		s.shards[i].eng = e
		s.shards[i].sink = e.Register(sink)
		if c.ob != nil {
			s.shards[i].ob = &obs.Buffer{}
		}
	}
	s.table = newFleetTable(c, ingress.JSQ)
	return s
}

// placeReplica assigns a new container to its shard (round-robin by
// id, so the layout is a pure function of the id sequence) and opens
// its queue on that shard's engine.
func (s *shardRun) placeReplica(ct *container) {
	ct.shard = int32((ct.id - 1) % len(s.engines))
	ss := &s.shards[ct.shard]
	ct.q = sim.NewQueue(ss.eng, ct.name, s.c.servers)
	if s.c.ob != nil {
		s.c.ob.traceQueue(ct.q, ss.ob, uint32(ct.id), ct.name)
	}
	ct.q.OnStart = func(j sim.Job) { ct.epochBusy += j.Cost }
	if s.fi != nil {
		ct.q.OnDone = func(j sim.Job) { s.attemptDone(ct, j) }
	} else {
		ct.q.OnDone = func(j sim.Job) { s.replicaDone(ct, j) }
	}
	s.table.dirty = true
}

// replicaDone observes one plain-front-door completion, shard-locally:
// merge-safe statistics now, the canonical re-issue record for the next
// barrier.
func (s *shardRun) replicaDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard]
	now := ss.eng.Now()
	lat := now - j.Born
	if ct.errRate > 0 && ct.errRng.Float64() < ct.errRate {
		// Gray completion: the replica answered with an error. The coin
		// comes from the replica's private stream and its completions
		// are engine-local, so the draw sequence is shard-layout
		// invariant. Closed-loop clients still re-issue.
		ss.erred++
		if o := s.c.ob; o != nil {
			ss.ob.Emit(now, o.kErred, uint64(lat), 0)
		}
		if s.collectDone {
			ss.done = append(ss.done, doneRec{at: now, rep: int32(ct.id - 1), id: j.ID})
		}
		return
	}
	ss.fleet.Observe(lat)
	ss.win.Observe(lat)
	ss.latSum += uint64(lat)
	ss.latN++
	ss.completed++
	if o := s.c.ob; o != nil {
		ss.ob.Emit(now, o.kServed, uint64(lat), uint64(j.Cost))
	}
	if s.collectDone {
		ss.done = append(ss.done, doneRec{at: now, rep: int32(ct.id - 1), id: j.ID})
	}
}

// finishEpoch is the per-shard tail of an epoch, run by the goroutine
// that just drove shard i's engine to the barrier — a worker, or the
// coordinator when the pool is one worker wide. The shard is untouched
// by anyone else until its ack, so this work overlaps across workers
// and stays off the serial barrier.
func (s *shardRun) finishEpoch(i int) {
	if s.c.ob != nil {
		s.accScan(i)
	}
	if s.collectDone {
		orderRun(s.shards[i].done)
	}
}

// accScan folds the epoch's served completions from shard i's outbox
// into its windowed accumulator — a tight sequential pass that keeps
// the aggregation out of the event loop. The outbox holds exactly this
// epoch's records (barriers flush it).
func (s *shardRun) accScan(i int) {
	ss := &s.shards[i]
	key := s.c.ob.kServed
	recs := ss.ob.Take()
	for k := range recs {
		if recs[k].Key == key {
			ss.acc.observe(recs[k].At, recs[k].A, recs[k].B)
		}
	}
}

// attemptDone records one ingress attempt completion, shard-locally;
// the barrier decides what the completion means for its call (and
// whether its latency counts — only winning attempts feed the hedge
// quantile, like the single-engine graph).
func (s *shardRun) attemptDone(ct *container, j sim.Job) {
	ss := &s.shards[ct.shard]
	ss.fleetCompleted++
	// The gray-failure coin is drawn at completion time from the
	// replica's private stream: its completions are engine-local, so
	// the draw sequence is shard-layout invariant. The barrier decides
	// whether anyone was still waiting for the answer.
	erred := ct.errRate > 0 && ct.errRng.Float64() < ct.errRate
	ss.fdone = append(ss.fdone, fiEvent{at: ss.eng.Now(), kind: fiEvFleetDone, erred: erred,
		order: ingress.CallOrder(j.ID), id: j.ID, cost: j.Cost, born: j.Born})
}

// admitNow routes one request at the current barrier instant — the
// sharded counterpart of Cluster.dispatch, used for closed-loop
// seeding and re-issue (engines are parked, so queues accept directly).
func (s *shardRun) admitNow(id uint64) {
	c := s.c
	if s.fi != nil {
		c.dispatched++
		if c.ob != nil {
			c.ob.countArrive(s.now)
		}
		s.fi.clientArrive(id, s.now)
		return
	}
	rep := s.table.pick()
	if rep < 0 {
		c.dropped++
		if c.ob != nil {
			c.ob.cen.Emit(s.now, c.ob.kDropped, id, 0)
		}
		return
	}
	c.dispatched++
	if c.ob != nil {
		c.ob.countArrive(s.now)
	}
	ct := c.containers[rep]
	ct.q.Arrive(sim.Job{ID: id, Cost: c.costOf(ct), Born: s.now, Stage: rep})
}

// start arms the run: barrier schedule, arrival stream or population,
// routing stream, and the worker pool.
func (s *shardRun) start(t Traffic, open bool, conc int) {
	c := s.c
	if c.cfg.EpochUS > 0 {
		s.epoch = cycles.FromSeconds(c.cfg.EpochUS / 1e6)
	} else {
		// Adaptive default: two service times per barrier, so the
		// default saturating closed loop (two jobs per server slot)
		// spans the epoch and barrier re-admits keep servers busy.
		s.epoch = min(2*c.per, cycles.FromSeconds(maxDefaultEpochUS/1e6))
	}
	if s.epoch == 0 {
		s.epoch = 1
	}
	s.controlDue = min(c.interval, c.horizon)
	s.collectDone = !open && s.fi == nil
	s.table.rng = sim.NewRand(t.Seed ^ 0x16c4e5500) // routing stream, as on the single engine
	if s.fi != nil {
		s.fi.m.SetRand(s.table.rng) // breaker probes draw from it too
	}
	s.table.rebuild()
	if open {
		switch {
		case t.Burst != nil:
			s.arr = sim.NewBursty(t.Burst.PeakRate, t.Burst.OnSeconds, t.Burst.OffSeconds)
		case t.Paced:
			s.arr = sim.FixedRate(t.Rate)
		default:
			s.arr = sim.PoissonRate(t.Rate)
		}
		s.arrRng = sim.NewRand(t.Seed)
		s.nextArr = s.arr.Next(s.arrRng)
		s.arrOn = true
	} else {
		for i := 0; i < conc; i++ {
			s.admitNow(uint64(i + 1))
		}
	}

	w := c.cfg.ShardWorkers
	if w <= 0 {
		w = min(len(s.engines), runtime.GOMAXPROCS(0))
	}
	if w > len(s.engines) {
		w = len(s.engines)
	}
	s.workers = w
	if w > 1 {
		s.work = make(chan int32, len(s.engines))
		s.ack = make(chan struct{}, len(s.engines))
		for i := 0; i < w; i++ {
			go func() {
				for idx := range s.work {
					s.engines[idx].Run(s.target)
					s.finishEpoch(int(idx))
					s.ack <- struct{}{}
				}
			}()
		}
	}
}

// step runs one barrier plus the epoch after it. It returns false once
// the final barrier (at the horizon) has been processed.
func (s *shardRun) step() bool {
	s.barrier()
	if s.now >= s.c.horizon {
		return false
	}
	next := s.now + s.epoch
	if s.controlDue > s.now && s.controlDue < next {
		next = s.controlDue
	}
	if x := s.c.chaos; x != nil {
		// Fault events and probe sweeps land on their exact instants:
		// the barrier schedule caps the epoch at the next chaos due
		// time, exactly as it does for the control loop.
		if d := x.nextDue(); d > s.now && d < next {
			next = d
		}
	}
	if next > s.c.horizon {
		next = s.c.horizon
	}
	s.genArrivals(next)
	s.runTo(next)
	s.now = next
	return true
}

// stop releases the worker pool.
func (s *shardRun) stop() {
	if s.work != nil {
		close(s.work)
		s.work = nil
	}
}

// barrier is the serial phase at virtual instant s.now: fold shard
// accumulators in replica-id order, resnapshot routing, apply buffered
// cross-shard effects canonically, then any control-plane actions due
// at this instant.
func (s *shardRun) barrier() {
	c := s.c
	if c.ob != nil {
		// Drain the finished epoch's trace batch first: per-shard
		// outboxes plus the central one (previous barrier's emissions and
		// this epoch's generated arrivals), merged canonically. Records
		// the rest of this barrier emits carry timestamp s.now and join
		// the next batch — batch boundaries are model properties.
		c.ob.drain(s, s.now)
	}
	for _, ct := range c.containers {
		if ct.epochBusy != 0 {
			c.winBusy += ct.epochBusy
			ct.node.busy += ct.epochBusy
			ct.node.winBusy += ct.epochBusy
			ct.epochBusy = 0
		}
		if ct.draining && !ct.gone && ct.q.Depth() == 0 {
			c.retire(ct)
		}
	}
	for i := range s.shards {
		ss := &s.shards[i]
		c.win.Merge(&ss.win)
		ss.win.Reset()
		// Fold the epoch's gray errors centrally: the deploy guard
		// reads c.erred per control window.
		c.erred += ss.erred
		ss.erred = 0
	}
	s.table.rebuild()
	if s.fi != nil {
		s.fi.processEpoch()
	} else if s.collectDone {
		s.processDone()
	}
	mutated := false
	if c.chaos != nil && c.chaos.atBarrier(s.now) {
		mutated = true
	}
	if s.controlDue != 0 && s.now >= s.controlDue {
		c.controlStep(s.now)
		if next := min(s.now+c.interval, c.horizon); next > s.now {
			s.controlDue = next
		} else {
			s.controlDue = 0
		}
		mutated = true
	}
	if mutated || s.table.dirty {
		s.table.rebuild()
	}
}

// processDone re-issues the epoch's closed-loop connections in
// canonical (time, replica) order. finishEpoch has already put each
// shard's done run in that order, so the barrier only k-way merges the
// runs, which equals a stable sort of their concatenation record for
// record. The order is layout-invariant: a replica lives on exactly one
// shard, so records with equal keys come from one replica's run, in
// that replica's own completion order.
func (s *shardRun) processDone() {
	m := &s.merge
	for i := range s.shards {
		m.runs[i] = s.shards[i].done
	}
	m.build()
	for d, ok := m.pop(); ok && d.at < s.c.horizon; d, ok = m.pop() {
		s.admitNow(d.id)
	}
	for i := range s.shards {
		s.shards[i].done = s.shards[i].done[:0]
	}
}

// genArrivals generates the open-loop stream for the epoch (s.now,
// next]: each arrival is routed against the barrier's table (plus the
// epoch's own assignments) and scheduled as a typed event at its exact
// instant on the target shard — one central stream, so ids, times, and
// placements never depend on the shard layout.
func (s *shardRun) genArrivals(next cycles.Cycles) {
	if !s.arrOn {
		return
	}
	c := s.c
	for s.nextArr <= next {
		if s.nextArr >= c.horizon {
			s.arrOn = false
			return
		}
		t := s.nextArr
		s.nextID++
		if s.fi != nil {
			c.dispatched++
			if c.ob != nil {
				c.ob.countArrive(t)
			}
			s.engines[0].ScheduleAt(t, s.shards[0].sink, sim.Job{ID: s.nextID, Born: t, Stage: -1})
		} else if rep := s.table.pick(); rep < 0 {
			c.dropped++
			if c.ob != nil {
				c.ob.cen.Emit(t, c.ob.kDropped, s.nextID, 0)
			}
		} else {
			c.dispatched++
			if c.ob != nil {
				c.ob.countArrive(t)
			}
			ct := c.containers[rep]
			s.engines[ct.shard].ScheduleAt(t, s.shards[ct.shard].sink, sim.Job{ID: s.nextID, Cost: c.costOf(ct), Born: t, Stage: rep})
		}
		s.nextArr = t + s.arr.Next(s.arrRng)
	}
}

// runTo advances every shard engine to the next barrier, in parallel
// through the worker pool, or inline when the pool is one worker wide
// (results are identical either way — only wall-clock differs).
func (s *shardRun) runTo(next cycles.Cycles) {
	if s.workers <= 1 {
		for i, e := range s.engines {
			e.Run(next)
			s.finishEpoch(i)
		}
		return
	}
	s.target = next
	for i := range s.engines {
		s.work <- int32(i)
	}
	for range s.engines {
		<-s.ack
	}
}
