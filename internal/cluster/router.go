package cluster

import (
	"xcontainers/internal/ingress"
	"xcontainers/internal/sim"
)

// tableBuckets caps the depth resolution of the bucketed JSQ structure:
// replicas deeper than the cap share the top bucket (at that backlog
// the fleet is drowning and exact ordering is meaningless). 4096 keeps
// the bucket arrays at 32 KiB while resolving any depth a stable fleet
// reaches.
const tableBuckets = 4096

// fleetTable is the sharded engine's routing view of the fleet: an
// epoch snapshot of every replica's queue depth plus the assignments
// made against it since the snapshot. All decisions that legacy code
// took by scanning live queues — JSQ dispatch, ingress load balancing —
// read this table instead, so routing is a pure function of
// barrier-time state and therefore identical for any shard layout.
//
// JSQ picks are O(1): replicas hang off per-depth FIFO buckets
// (intrusive lists through the next array), a pick pops the shallowest
// bucket's head and reinserts one bucket deeper, and the bucket cursor
// only ever moves up between rebuilds. The FIFO order doubles as the
// rotating tie-break — equal-depth replicas take turns in the order the
// rebuild enqueued them.
type fleetTable struct {
	c  *Cluster
	lb ingress.Policy // JSQ for the plain front door; the route's LB behind ingress
	// rng drives PowerOfTwo sampling; it is the dedicated routing
	// stream (seed ^ 0x16c4e5500), same as the single-engine graph's.
	rng *sim.Rand

	depth []int32 // effective depth: barrier snapshot + epoch assignments
	ups   []int32 // routable replica indices in id order
	next  []int32 // intrusive bucket list, -1 terminated
	head  [tableBuckets]int32
	tail  [tableBuckets]int32
	cur   int // lowest possibly non-empty bucket

	rr    int  // rotating cursor for rr/weighted picks
	dirty bool // membership changed since the last rebuild
}

func newFleetTable(c *Cluster, lb ingress.Policy) *fleetTable {
	return &fleetTable{c: c, lb: lb, dirty: true}
}

// rebuild resnapshots every replica's depth and routability. Called at
// each epoch barrier (and again after control actions change
// membership); O(replicas).
func (t *fleetTable) rebuild() {
	n := len(t.c.containers)
	if cap(t.depth) < n {
		t.depth = make([]int32, n, 2*n)
		t.next = make([]int32, n, 2*n)
		t.ups = make([]int32, 0, 2*n)
	}
	t.depth = t.depth[:n]
	t.next = t.next[:n]
	t.ups = t.ups[:0]
	jsq := t.lb == ingress.JSQ
	if jsq {
		for b := range t.head {
			t.head[b] = -1
			t.tail[b] = -1
		}
		t.cur = 0
	}
	for i, ct := range t.c.containers {
		t.depth[i] = int32(ct.q.Depth())
		if !t.c.routableCt(ct) {
			continue
		}
		t.ups = append(t.ups, int32(i))
		if jsq {
			t.enqueue(int32(i), bucketFor(t.depth[i]))
		}
	}
	t.dirty = false
}

func bucketFor(d int32) int {
	if d >= tableBuckets {
		return tableBuckets - 1
	}
	return int(d)
}

// enqueue appends rep to bucket b's FIFO.
func (t *fleetTable) enqueue(rep int32, b int) {
	t.next[rep] = -1
	if t.tail[b] < 0 {
		t.head[b] = rep
		t.tail[b] = rep
	} else {
		t.next[t.tail[b]] = rep
		t.tail[b] = rep
	}
	if b < t.cur {
		t.cur = b
	}
}

// pick selects one replica under the table's policy and records the
// assignment (so the next pick this epoch sees the queued request), or
// returns -1 with nothing routable. Deterministic: every choice is a
// function of table state and, for p2c, the seeded routing stream.
func (t *fleetTable) pick() int {
	switch t.lb {
	case ingress.JSQ:
		return t.pickJSQ()
	case ingress.PowerOfTwo:
		return t.pickP2C()
	}
	return t.pickRR()
}

// pickJSQ pops the shallowest bucket's head and reinserts it one
// deeper — O(1) amortized, FIFO rotation on ties.
func (t *fleetTable) pickJSQ() int {
	for t.cur < tableBuckets && t.head[t.cur] < 0 {
		t.cur++
	}
	if t.cur == tableBuckets {
		t.cur = tableBuckets - 1 // park on the top bucket for reinserts
		if t.head[t.cur] < 0 {
			return -1
		}
	}
	rep := t.head[t.cur]
	t.head[t.cur] = t.next[rep]
	if t.head[t.cur] < 0 {
		t.tail[t.cur] = -1
	}
	t.depth[rep]++
	t.enqueue(rep, bucketFor(t.depth[rep]))
	return int(rep)
}

// pickRR rotates over routable replicas (smooth weighted round-robin
// degenerates to exactly this when every weight is 1, which cluster
// replicas all are).
func (t *fleetTable) pickRR() int {
	n := len(t.c.containers)
	for i := 0; i < n; i++ {
		idx := (t.rr + i) % n
		ct := t.c.containers[idx]
		if !t.c.routableCt(ct) {
			continue
		}
		t.rr = idx + 1
		t.depth[idx]++
		return idx
	}
	return -1
}

// pickP2C samples two routable replicas from the routing stream and
// joins the shallower; ties keep the first sample, as the
// single-engine balancer does.
func (t *fleetTable) pickP2C() int {
	up := len(t.ups)
	if up == 0 {
		return -1
	}
	a := t.ups[int(t.rng.Uint64()%uint64(up))]
	if up > 1 {
		b := t.ups[int(t.rng.Uint64()%uint64(up))]
		if b == a {
			b = t.nextUp(a)
		}
		if t.depth[b] < t.depth[a] {
			a = b
		}
	}
	t.depth[a]++
	return int(a)
}

// nextUp returns the routable replica after rep in ups order,
// cyclically — the "different replica" fallback of p2c resampling and
// hedging.
func (t *fleetTable) nextUp(rep int32) int32 {
	for i, u := range t.ups {
		if u == rep {
			return t.ups[(i+1)%len(t.ups)]
		}
	}
	return rep
}

// pickOther prefers a replica different from avoid — the hedge target.
func (t *fleetTable) pickOther(avoid int) int {
	idx := t.pick()
	if idx == avoid && idx >= 0 {
		if alt := t.nextUp(int32(idx)); int(alt) != idx {
			t.depth[avoid]-- // the assignment moves to the alternate
			t.depth[alt]++
			return int(alt)
		}
	}
	return idx
}
