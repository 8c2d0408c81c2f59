package chaos

import (
	"math"
	"strings"
	"testing"
)

func TestParseFullPlan(t *testing.T) {
	p, err := Parse("crash@0.25,count=3; gray@0.3+0.2,cost=4,err=0.05,version=2; " +
		"partition@0.4+0.1,frac=0.5; restart@0.5,count=2,recovery=0.02; " +
		"probes,interval=0.002,timeout-us=800,unhealthy=4,healthy=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Probes == nil || p.Probes.IntervalSec != 0.002 || p.Probes.TimeoutUS != 800 ||
		p.Probes.UnhealthyAfter != 4 || p.Probes.HealthyAfter != 2 {
		t.Fatalf("probes = %+v", p.Probes)
	}
	if len(p.Faults) != 4 {
		t.Fatalf("faults = %d", len(p.Faults))
	}
	f := p.Faults[0]
	if f.Kind != KindCrash || f.AtSec != 0.25 || f.Count != 3 {
		t.Fatalf("crash = %+v", f)
	}
	f = p.Faults[1]
	if f.Kind != KindGray || f.AtSec != 0.3 || f.DurationSec != 0.2 ||
		f.CostFactor != 4 || f.ErrorRate != 0.05 || f.Version != 2 {
		t.Fatalf("gray = %+v", f)
	}
	f = p.Faults[2]
	if f.Kind != KindPartition || f.Frac != 0.5 || f.DurationSec != 0.1 {
		t.Fatalf("partition = %+v", f)
	}
	f = p.Faults[3]
	if f.Kind != KindRestart || f.Count != 2 || f.RecoverySec != 0.02 {
		t.Fatalf("restart = %+v", f)
	}
}

func TestParseSortsByTime(t *testing.T) {
	p, err := Parse("restart@0.5;crash@0.1;gray@0.3+0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].Kind != KindCrash || p.Faults[1].Kind != KindGray || p.Faults[2].Kind != KindRestart {
		t.Fatalf("order = %v %v %v", p.Faults[0].Kind, p.Faults[1].Kind, p.Faults[2].Kind)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("gray@0.1+0.2;probes")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Faults[0]
	if f.CostFactor != 4 || f.Count != 1 {
		t.Fatalf("gray defaults = %+v", f)
	}
	pr := p.Probes
	if pr.IntervalSec != 0.005 || pr.UnhealthyAfter != 3 || pr.HealthyAfter != 2 {
		t.Fatalf("probe defaults = %+v", pr)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "bogus@0.1", "crash", "crash@x", "gray@0.1", // gray needs a duration
		"gray@0.1+0.2,err=1.5", "partition@0.1+0.2,frac=2",
		"crash@0.1,nope=3", "probes,interval=-1", "restart@0.1,recovery=-1",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

// TestParseRejectsNonFinite pins that NaN and ±Inf fail in the parser,
// naming the option, wherever a float enters the DSL: no range check
// downstream can catch a NaN.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ plan, key string }{
		{"crash@NaN", "at="},
		{"crash@Inf", "at="},
		{"crash@-Inf", "at="},
		{"gray@0.1+NaN,count=2", "dur="},
		{"gray@0.1+0.2,cost=+Inf", "cost="},
		{"gray@0.1+0.2,err=NaN", "err="},
		{"partition@0.1+0.2,frac=NaN", "frac="},
		{"restart@0.1,recovery=Inf", "recovery="},
		{"probes,interval=NaN", "interval="},
		{"probes,timeout-us=Inf", "timeout-us="},
	} {
		_, err := Parse(tc.plan)
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", tc.plan, err, tc.key)
		}
	}
}

// FuzzChaosParse holds Parse to its contract on arbitrary input: it
// never panics, and a plan it accepts carries only finite floats.
func FuzzChaosParse(f *testing.F) {
	for _, s := range []string{
		"crash@0.25,count=3",
		"gray@0.3+0.2,cost=4,err=0.05,version=2",
		"partition@0.4+0.1,frac=0.5",
		"restart@0.5,count=2,recovery=0.02",
		"probes,interval=0.005,timeout-us=800,unhealthy=3,healthy=2",
		"crash@0.2;gray@0.3+0.1,count=2,err=0.3;probes,interval=0.005",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		var vals []float64
		if pr := p.Probes; pr != nil {
			vals = append(vals, pr.IntervalSec, pr.TimeoutUS)
		}
		for _, x := range p.Faults {
			vals = append(vals, x.AtSec, x.DurationSec, x.Frac, x.CostFactor, x.ErrorRate, x.RecoverySec)
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted a non-finite value: %+v", s, p)
			}
		}
	})
}

func TestNormalizeValidates(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: KindGray, AtSec: 0.1}}}
	if err := p.Normalize(); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("err = %v", err)
	}
	p = &Plan{Faults: []Fault{{Kind: KindCrash, AtSec: -1}}}
	if err := p.Normalize(); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestVictims(t *testing.T) {
	f := Fault{Kind: KindPartition, Frac: 0.5}
	if got := f.Victims(5); got != 3 {
		t.Fatalf("frac victims = %d", got)
	}
	f = Fault{Kind: KindPartition, Count: 10}
	if got := f.Victims(4); got != 4 {
		t.Fatalf("capped victims = %d", got)
	}
}
