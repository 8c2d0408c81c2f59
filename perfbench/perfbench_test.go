package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/cluster"
	"xcontainers/internal/ingress"
)

func TestReferenceRejectsPerturbedDigest(t *testing.T) {
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		ref, ok := refs[w.name]
		if !ok {
			t.Fatalf("no reference digest for %s", w.name)
		}
		if err := checkReference(refs, w.name, ref.Seed, ref.Digest); err != nil {
			t.Errorf("%s: recorded digest rejected: %v", w.name, err)
		}
		b := []byte(ref.Digest)
		b[7] ^= 1
		if err := checkReference(refs, w.name, ref.Seed, string(b)); err == nil {
			t.Errorf("%s: perturbed digest accepted", w.name)
		}
		// Other seeds have no reference, unless the report ignores the seed.
		err := checkReference(refs, w.name, heldOutSeed, string(b))
		if ref.AnySeed != (err != nil) {
			t.Errorf("%s: held-out seed with any_seed=%v: err = %v", w.name, ref.AnySeed, err)
		}
	}
}

func TestCheckFleetRejectsBrokenInvariants(t *testing.T) {
	good := func() *cluster.Result {
		return &cluster.Result{
			Arrived: 100, Completed: 90, Erred: 5, Dropped: 3,
			Nodes: []cluster.NodeStats{
				{Containers: 2, MigrationsOut: 1},
				{Containers: 1, MigrationsIn: 1},
			},
			PeakContainers: 3,
			Migrations:     []cluster.Migration{{FromNode: 0, ToNode: 1}},
			Routes:         []ingress.RouteStats{{Route: "ingress->fleet", Calls: 100, Completed: 95, Failed: 5, Hedges: 4, HedgeWins: 2}},
		}
	}
	if err := checkFleet(good()); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*cluster.Result){
		"finished more than arrived": func(r *cluster.Result) { r.Completed = 99 },
		"nothing completed":          func(r *cluster.Result) { r.Completed, r.Erred = 0, 0 },
		"node migrations":            func(r *cluster.Result) { r.Nodes[1].MigrationsIn = 0 },
		"live above peak":            func(r *cluster.Result) { r.Nodes[0].Containers = 5 },
		"route over calls":           func(r *cluster.Result) { r.Routes[0].Failed = 10 },
		"hedge wins over hedges":     func(r *cluster.Result) { r.Routes[0].HedgeWins = 5 },
	} {
		r := good()
		breakIt(r)
		if err := checkFleet(r); err == nil {
			t.Errorf("%s: broken report accepted", name)
		}
	}
}

func TestCheckTier1RejectsBrokenInvariants(t *testing.T) {
	good := func() (*tier1Report, uint64) {
		rep := &tier1Report{ABOM: abom.Stats{Patched7Case1: 1, Patched9Phase2: 1}}
		for i := 0; i < tier1Lanes; i++ {
			rep.Lanes = append(rep.Lanes, arch.Counters{Instructions: 1000, RawSyscalls: 2, VsyscallCalls: 2*tier1Loops - 2})
		}
		return rep, 1000 * tier1Lanes
	}
	if rep, total := good(); checkTier1(rep, total) != nil {
		t.Fatalf("consistent report rejected: %v", checkTier1(rep, total))
	}
	rep, total := good()
	rep.Lanes[2].VsyscallCalls--
	if checkTier1(rep, total) == nil {
		t.Error("lane with a missing syscall accepted")
	}
	rep, total = good()
	if checkTier1(rep, total+1) == nil {
		t.Error("lane instructions not summing to the total accepted")
	}
	rep, total = good()
	rep.ABOM = abom.Stats{}
	if checkTier1(rep, total) == nil {
		t.Error("run without ABOM patches accepted")
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkMetricNames(append(append([]Metric{}, endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"run s", "run/s", "ns_per_event!", "_run_s", "", strings.Repeat("a", 65)} {
		if err := checkMetricNames([]Metric{{bad, "s", "lower", 0.1}}); err == nil {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	if err := checkMetricNames([]Metric{{"a", "s", "lower", 0}, {"a", "s", "lower", 0}}); err == nil {
		t.Error("duplicate metric accepted")
	}
	if err := checkMetricNames([]Metric{{"a", "m s", "lower", 0}}); err == nil {
		t.Error("unit with a space accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2.5, 1, 4}, 1, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestClassify(t *testing.T) {
	lower := Metric{"run_s", "s", "lower", 0.1}
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		m          Metric
		base, head []float64
		want       string
	}{
		{"same runs", lower, base, base, unchanged},
		{"20% faster", lower, base, scale(base, 0.8), improved},
		{"20% slower", lower, base, scale(base, 1.2), worse},
		{"5% slower, inside the bound", lower, base, scale(base, 1.05), unchanged},
		{"faster on too few pairs", lower, base[:5], scale(base[:5], 0.8), unresolved},
		{"higher is better", Metric{"sim_ops_per_s", "op/s", "higher", 0.1}, base, scale(base, 1.2), improved},
		{"throughput drop", Metric{"sim_ops_per_s", "op/s", "higher", 0.1}, base, scale(base, 0.8), worse},
		{"base spread wider than the bound", lower,
			[]float64{1, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1},
			[]float64{1.1, 1.4, 0.8, 1.3, 0.9, 1.2, 0.7, 1.5, 1, 1.2}, unresolved},
		{"wins every pair but the gap is inside the spread", Metric{"run_s", "s", "lower", 0.25},
			[]float64{1, 1.2, 0.9, 1.1, 0.95, 1.05, 1.15, 0.85, 1, 1.1},
			[]float64{0.99, 1.19, 0.89, 1.09, 0.94, 1.04, 1.14, 0.84, 0.99, 1.09}, unchanged},
	} {
		if got := classify(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "cluster.New", StartNS: 0, EndNS: 50},
		{ID: 1, Parent: -1, Name: "harness.run", StartNS: 100, EndNS: 1100},
		{ID: 2, Parent: 1, Name: "cluster.Run", StartNS: 110, EndNS: 900},
		{ID: 3, Parent: 1, Name: "xc.report", StartNS: 900, EndNS: 1090},
	}
	self := selfTimes(spans, 1)
	want := map[string]float64{"harness": 20e-9, "cluster": 790e-9, "xc": 190e-9}
	var sum float64
	for layer, v := range self {
		sum += v
		if d := v - want[layer]; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", layer, v, want[layer])
		}
	}
	if d := sum - 1000e-9; d > 1e-15 || d < -1e-15 {
		t.Errorf("self times sum to %g, want the root's %g", sum, 1000e-9)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(true)
	endRoot := tr.begin("harness.run")
	endChild := tr.begin("cluster.Run")
	endChild()
	endRoot()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	off := newTracer(false)
	off.begin("cluster.Run")()
	if len(off.spans) != 0 {
		t.Errorf("untraced run recorded %d spans", len(off.spans))
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the
// repository root in step with the tables the code reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if got := (Metric{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, got, endToEnd[i])
		}
	}
	for i, m := range doc.PerLayer {
		if got := (Metric{m.Name, m.Unit, m.Better, 0}); got != perLayer[i] {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, got, perLayer[i])
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tier1-smp", "--trace", "2"},
		{"--workload", "tier1-smp", "--seconds", "0"},
		{"compare", "only-one.jsonl"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if out.Len() != 0 && strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}
