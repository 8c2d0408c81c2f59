package cluster

import "xcontainers/internal/cycles"

// Closed-loop re-issue replays the epoch's completions in one canonical
// (time, replica) order. Each shard's engine fires events in
// (time, seq) order, so its done run is already sorted by time;
// orderRun fixes up replica order within each instant on the goroutine
// that ran the shard's epoch, and the serial barrier only merges the
// sorted runs.

// doneRec is one buffered completion: enough to merge canonically and
// re-issue a closed-loop connection.
type doneRec struct {
	at  cycles.Cycles
	rep int32
	id  uint64
}

// doneBefore is the canonical re-issue order: time, then replica.
func doneBefore(a, b doneRec) bool {
	return a.at < b.at || a.at == b.at && a.rep < b.rep
}

// orderRun sorts one shard's done run by (time, replica), stably. The
// run arrives sorted by time, so only completions sharing an instant
// can be out of replica order; on such nearly sorted input the
// insertion sort costs one comparison per record.
func orderRun(run []doneRec) {
	for i := 1; i < len(run); i++ {
		r := run[i]
		if !doneBefore(r, run[i-1]) {
			continue
		}
		j := i - 1
		for j > 0 && doneBefore(r, run[j-1]) {
			j--
		}
		copy(run[j+1:i+1], run[j:i])
		run[j] = r
	}
}

// spent is the head of an exhausted run: after every record.
const spent = ^cycles.Cycles(0)

// doneMerge is a k-way merge of (time, replica)-ordered runs through a
// tree of losers, so each merged record costs about log2(k)
// comparisons. Ties between runs go to the lower run index, which makes
// the merge equal, record for record, to a stable sort of the runs'
// concatenation. Its buffers are sized once for k runs, so merging
// allocates nothing.
type doneMerge struct {
	runs  [][]doneRec // unmerged tail of each run; load before build
	heads []doneRec   // heads[i] is runs[i][0], or spent; heads[k] is build's sentinel
	tree  []int32     // tree[0] is the winning run, tree[1:] each inner match's loser
}

func newDoneMerge(k int) doneMerge {
	return doneMerge{
		runs:  make([][]doneRec, k),
		heads: make([]doneRec, k+1),
		tree:  make([]int32, k),
	}
}

// build plays the initial tournament over the loaded runs. Every match
// starts held by the sentinel run k, whose head sorts before any record
// (replica ids are non-negative), so replaying the leaves from last to
// first fills the tree bottom-up.
func (m *doneMerge) build() {
	k := int32(len(m.runs))
	for i, r := range m.runs {
		m.heads[i] = headOf(r)
	}
	m.heads[k] = doneRec{rep: -1}
	for i := range m.tree {
		m.tree[i] = k
	}
	for i := k - 1; i >= 0; i-- {
		m.replay(i)
	}
}

// pop removes and returns the first unmerged record; ok is false once
// every run is spent.
func (m *doneMerge) pop() (d doneRec, ok bool) {
	w := m.tree[0]
	d = m.heads[w]
	if d.at == spent {
		return d, false
	}
	m.runs[w] = m.runs[w][1:]
	m.heads[w] = headOf(m.runs[w])
	m.replay(w)
	return d, true
}

// replay carries run w's new head from its leaf to the root: at each
// match the earlier head moves on and the later one stays as the loser.
func (m *doneMerge) replay(w int32) {
	k := int32(len(m.runs))
	for n := (w + k) / 2; n > 0; n /= 2 {
		if l := m.tree[n]; m.before(l, w) {
			m.tree[n], w = w, l
		}
	}
	m.tree[0] = w
}

// before orders runs by their heads, ties to the lower run index.
func (m *doneMerge) before(a, b int32) bool {
	ha, hb := m.heads[a], m.heads[b]
	return doneBefore(ha, hb) || !doneBefore(hb, ha) && a < b
}

func headOf(run []doneRec) doneRec {
	if len(run) == 0 {
		return doneRec{at: spent}
	}
	return run[0]
}
