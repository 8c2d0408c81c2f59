package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"xcontainers/internal/cycles"
)

// TestDoneMergeMatchesStableSort pins the barrier's re-issue order on
// the paths the goldens never reach: same-instant completions fired out
// of replica order, and repeated (time, replica) keys from a replica
// with several servers. orderRun on each shard's run followed by the
// k-way merge must equal a stable sort of the runs' concatenation,
// record for record. Half the trials also let two shards share a
// replica id, which no layout produces, to pin the merge's tie-break by
// shard index.
func TestDoneMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	merges := make([]doneMerge, 10)
	for k := 1; k < len(merges); k++ {
		merges[k] = newDoneMerge(k)
	}
	var id uint64
	reordered := 0
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(len(merges)-1)
		owned := trial%2 == 0
		runs := make([][]doneRec, k)
		var all []doneRec
		for s := range runs {
			at := cycles.Cycles(rng.Intn(3))
			for n := rng.Intn(40); n > 0; n-- {
				at += cycles.Cycles(rng.Intn(3)) // 0: the same instant again
				reps := 1 + rng.Intn(4)
				for r := reps - 1; r >= 0; r-- { // descending replica order
					rep := int32(r)
					if owned {
						rep = int32(s + k*r)
					}
					for c := 1 + rng.Intn(3); c > 0; c-- { // repeated (at, rep)
						id++
						runs[s] = append(runs[s], doneRec{at: at, rep: rep, id: id})
					}
				}
			}
			all = append(all, runs[s]...)
		}
		slices.SortStableFunc(all, func(a, b doneRec) int {
			switch {
			case doneBefore(a, b):
				return -1
			case doneBefore(b, a):
				return 1
			}
			return 0
		})

		m := &merges[k]
		for s, run := range runs {
			before := slices.Clone(run)
			orderRun(run)
			if !slices.Equal(before, run) {
				reordered++
			}
			m.runs[s] = run
		}
		m.build()
		var got []doneRec
		for d, ok := m.pop(); ok; d, ok = m.pop() {
			got = append(got, d)
		}
		if !slices.Equal(got, all) {
			t.Fatalf("trial %d (%d shards, owned=%v): merge differs from stable sort\n got %v\nwant %v",
				trial, k, owned, got, all)
		}
	}
	if reordered == 0 {
		t.Fatal("no run needed a same-instant reorder: the tie path went untested")
	}
}
