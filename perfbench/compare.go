package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads read the same as the acceptance check computes
// them. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest base/head pairs on which a gain is claimed.
const minPairs = 10

// classify compares one metric of one workload between a base and a
// head result set, paired in order. A head improves when it wins at
// least nine tenths of at least minPairs pairs (ties count for
// neither) and its median beats the base's by more than the base's
// interquartile spread. Otherwise it is worse when its median is worse
// by more than the metric's bound. Where the base's own spread exceeds
// the bound, or too few pairs back a gain, the result is unresolved —
// unless every head run beats every base run, which rules out a
// regression.
func classify(m Metric, base, head []float64) string {
	wins, n := pairWins(m, base, head)
	if n == 0 {
		return unresolved
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	spread := q3 - q1
	gap := math.Abs(mh - mb)
	headBetter := m.better(mh, mb)

	if headBetter && gap > spread {
		if n >= minPairs && wins*10 >= 9*n {
			return improved
		}
		if n < minPairs {
			return unresolved
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && m.better(h, b)
		}
	}
	if spread > m.Bound*math.Abs(mb) {
		if allBetter {
			return unchanged
		}
		return unresolved
	}
	if !headBetter && gap > m.Bound*math.Abs(mb) {
		return worse
	}
	return unchanged
}

// better reports whether a reads better than b for this metric.
func (m Metric) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// pairWins pairs base and head runs in order and counts the pairs the
// head wins; ties count for neither side.
func pairWins(m Metric, base, head []float64) (wins, pairs int) {
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if m.better(head[i], base[i]) {
			wins++
		}
	}
	return wins, pairs
}

// Record is one benchmark run as appended to the results file.
type Record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	Host       Host    `json:"host"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run; high values mark runs
	// slowed by the host rather than by the code.
	StealFrac float64            `json:"steal_frac"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareMain compares the end-to-end metrics of two result files
// (base, then head), one row per workload and metric.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	sets := [2][]Record{}
	for i, p := range args {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		for _, r := range recs {
			if r.Trace == 0 {
				sets[i] = append(sets[i], r)
			}
		}
	}
	if len(sets[0]) == 0 || len(sets[1]) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: both files need untraced (--trace 0) results")
		return 1
	}
	host := sets[0][0].Host
	mixed := false
	for _, set := range sets {
		for _, r := range set {
			mixed = mixed || !r.Host.sameMachine(host)
		}
	}
	if mixed {
		fmt.Fprintln(stdout, "WARNING: results come from different hosts; the comparison is not valid.")
	}
	fmt.Fprintf(stdout, "base %s\nhead %s\n", sets[0][0].Host, sets[1][0].Host)

	var names []string
	byWorkload := [2]map[string][]Record{{}, {}}
	for i, set := range sets {
		for _, r := range set {
			if i == 0 && len(byWorkload[0][r.Workload]) == 0 {
				names = append(names, r.Workload)
			}
			byWorkload[i][r.Workload] = append(byWorkload[i][r.Workload], r)
		}
	}
	fmt.Fprintf(stdout, "%-14s %-14s %5s %14s %14s %14s %7s  %s\n",
		"workload", "metric", "pairs", "base median", "base IQR", "head median", "wins", "verdict")
	for _, wl := range names {
		base, head := byWorkload[0][wl], byWorkload[1][wl]
		if len(head) == 0 {
			fmt.Fprintf(stdout, "%-14s (no head results)\n", wl)
			continue
		}
		for _, m := range endToEnd {
			b, h := values(base, m.Name), values(head, m.Name)
			wins, n := pairWins(m, b, h)
			q1, q3 := quartiles(b)
			verdict := classify(m, b, h)
			if mixed {
				verdict += " (hosts differ)"
			}
			fmt.Fprintf(stdout, "%-14s %-14s %5d %14.6g %14.6g %14.6g %3d/%-3d  %s\n",
				wl, m.Name, n, median(b), q3-q1, median(h), wins, n, verdict)
		}
		fails := 0
		for _, r := range head {
			fails += r.Failed
		}
		if fails > 0 {
			fmt.Fprintf(stdout, "%-14s head has %d failed iterations\n", wl, fails)
		}
	}
	return 0
}

func values(recs []Record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
