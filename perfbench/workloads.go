package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"xcontainers/internal/abom"
	"xcontainers/internal/apps"
	"xcontainers/internal/arch"
	"xcontainers/internal/chaos"
	"xcontainers/internal/cluster"
	"xcontainers/internal/core"
	"xcontainers/internal/cycles"
	"xcontainers/internal/ingress"
	"xcontainers/internal/runtimes"
	"xcontainers/internal/sim"
	"xcontainers/internal/syscalls"
	"xcontainers/xc"
)

// sample is one iteration of a workload: set-up, then the measured
// phase (simulate, then render the report the user gets).
type sample struct {
	setup  []float64          // seconds, one per set-up repetition
	run    float64            // seconds of the measured phase
	ops    float64            // simulated operations the measured phase completed
	layers map[string]float64 // per-layer metrics of this iteration
	digest string             // digest of the simulated statistics
	root   int                // span index of the measured phase (traced runs)
	state  any                // the simulator state behind the report, kept for the heap peak
	peak   float64            // MiB of peak live heap
}

// measured is one iteration's measured phase, as a set-up returns it.
type measured func(tr *tracer) (*sample, error)

// workload is one named input set. setup prepares an iteration at a
// host worker count; parallel workloads have one, and their traced run
// repeats them at one worker to compare. setupSpan names the set-up for
// tracing.
type workload struct {
	name      string
	parallel  bool
	setupSpan string
	setup     func(seed uint64, workers int) (measured, error)
}

var workloads = []workload{
	{"fleet-closed", true, "cluster.New", fleetSetup(fleetClosed)},
	{"fleet-ingress", true, "cluster.New", fleetSetup(fleetIngress)},
	{"tier1-smp", true, "runtimes.setup", tier1Setup},
	{"paper-eval", false, "runtimes.boot", paperSetup},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// xcPlatform is the platform every fleet node and tier-1 run boots:
// what xc.NewCluster and xc.NewPlatform default to.
var xcPlatform = core.PlatformConfig{
	Kind: runtimes.XContainer, MeltdownPatched: true,
	Cloud: runtimes.LocalCluster, FastToolstack: true,
}

// fleetClosed is a saturating closed loop at the default population
// over 1,000 four-core nodes with one memcached replica each, bin-packed
// and autoscaled, on 8 epoch shards.
func fleetClosed(seed uint64) (cluster.Config, cluster.Traffic, error) {
	app, err := apps.ByName("memcached")
	cfg := cluster.Config{
		Platform: xcPlatform, App: app,
		Nodes: 1000, NodeCores: 4, Replicas: 1000,
		Policy: cluster.BinPack, Autoscale: true,
		Shards: 8,
	}
	return cfg, cluster.Traffic{DurationSec: 0.01, Seed: seed}, err
}

// fleetIngress is an open-loop Poisson load below saturation through
// the L7 ingress tier onto 500 spread replicas, under a chaos plan and
// an SLO-guarded canary rollout.
func fleetIngress(seed uint64) (cluster.Config, cluster.Traffic, error) {
	app, err := apps.ByName("memcached")
	if err != nil {
		return cluster.Config{}, cluster.Traffic{}, err
	}
	plan, err := chaos.Parse("gray@0.3+0.2,count=10,cost=4,err=0.05;" +
		"restart@0.5,count=5,recovery=0.02;probes,interval=0.005")
	if err != nil {
		return cluster.Config{}, cluster.Traffic{}, err
	}
	dep, err := cluster.ParseDeploy("canary@0.1,frac=0.1,err=0.02")
	if err != nil {
		return cluster.Config{}, cluster.Traffic{}, err
	}
	cfg := cluster.Config{
		Platform: xcPlatform, App: app,
		Nodes: 125, NodeCores: 4, Replicas: 500,
		Policy: cluster.Spread, SLOp99US: 500,
		Ingress: &cluster.IngressConfig{Route: ingress.RoutePolicy{
			LB: ingress.PowerOfTwo, KeepAlive: true, KeepAliveReqs: 100,
			Timeout: cycles.FromMicros(2000), Retries: 2,
			HedgeP: 0.99, BreakerFailureRate: 0.5,
		}},
		Chaos: plan, Deploy: dep,
		Shards: 8,
	}
	return cfg, cluster.Traffic{Rate: 400_000, DurationSec: 0.6, Seed: seed}, nil
}

func fleetSetup(build func(seed uint64) (cluster.Config, cluster.Traffic, error)) func(uint64, int) (measured, error) {
	return func(seed uint64, workers int) (measured, error) {
		cfg, traffic, err := build(seed)
		if err != nil {
			return nil, err
		}
		cfg.ShardWorkers = workers
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster.New: %w", err)
		}
		return func(tr *tracer) (*sample, error) { return fleetRun(tr, cl, traffic) }, nil
	}
}

func fleetRun(tr *tracer, cl *cluster.Cluster, traffic cluster.Traffic) (*sample, error) {
	s := &sample{root: len(tr.spans)}
	endRun := tr.begin("harness.run")
	endSim := tr.begin("cluster.Run")
	res, err := cl.Run(traffic)
	simS := endSim()
	var report []byte
	if err == nil {
		endRep := tr.begin("xc.report")
		report, err = json.MarshalIndent(res, "", "  ")
		s.layers = map[string]float64{"xc.report_s": endRep()}
	}
	s.run = endRun()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	if err := checkFleet(res); err != nil {
		return nil, err
	}
	s.digest = digest(report)
	s.ops = float64(res.Completed)
	s.state = cl
	events := float64(cl.EventsFired())
	l := s.layers
	l["cluster.run_s"] = simS
	l["cluster.events"] = events
	l["cluster.ns_per_event"] = simS * 1e9 / events
	l["cluster.completed"] = float64(res.Completed)
	l["cluster.dropped"] = float64(res.Dropped)
	l["cluster.erred"] = float64(res.Erred)
	l["cluster.migrations"] = float64(len(res.Migrations))
	var hedges, wins float64
	for _, r := range res.Routes {
		l["ingress.calls"] += float64(r.Calls)
		l["ingress.retries"] += float64(r.Retries)
		l["ingress.timeouts"] += float64(r.Timeouts)
		l["ingress.handshakes"] += float64(r.Handshakes)
		hedges += float64(r.Hedges)
		wins += float64(r.HedgeWins)
	}
	l["ingress.hedges"], l["ingress.hedge_wins"] = hedges, wins
	if hedges > 0 {
		l["ingress.hedge_useful_ratio"] = wins / hedges
	}
	if c := res.Chaos; c != nil {
		l["chaos.probes_sent"] = float64(c.ProbesSent)
		l["chaos.ejections"] = float64(c.Ejections)
		l["chaos.readmissions"] = float64(c.Readmissions)
	}
	if d := res.Deploy; d != nil {
		l["deploy.upgraded"] = float64(d.Upgraded)
	}
	return s, nil
}

// tier1Lanes and tier1Loops size tier1-smp: four vCPUs of one
// X-Container, each running tier1Loops iterations of the same freshly
// loaded text.
const (
	tier1Lanes = 4
	tier1Loops = 200_000
)

// tier1Text is the guest program: per loop iteration, straight-line
// compute with seed-chosen costs, a write through the 9-byte syscall
// pattern and a getpid through the 7-byte one — the two sites ABOM
// patches live in the first iterations.
func tier1Text(seed uint64) (*arch.Text, error) {
	rng := sim.NewRand(seed)
	w := [3]uint32{}
	for i := range w {
		w[i] = 200 + uint32(rng.Uint64()%400)
	}
	return arch.NewAssembler(arch.UserTextBase).
		Loop(tier1Loops, func(a *arch.Assembler) {
			a.Work(w[0]).Nop().PushRax().PopRax().Work(w[1])
			a.MovR32(arch.RDI, 1).SyscallN64(uint32(syscalls.Write))
			a.Work(w[2])
			a.SyscallN(uint32(syscalls.Getpid))
		}).Hlt().Assemble()
}

// tier1Setup is the tier-1 set-up a user pays before the first guest
// instruction: boot the runtime, create the container, load the text
// and start one process per vCPU.
func tier1Setup(seed uint64, workers int) (measured, error) {
	rt, err := runtimes.New(runtimes.Config{
		Kind: xcPlatform.Kind, Patched: xcPlatform.MeltdownPatched, Cloud: xcPlatform.Cloud,
	})
	if err != nil {
		return nil, err
	}
	c, err := rt.NewContainer("perfbench-smp", tier1Lanes, false)
	if err != nil {
		return nil, err
	}
	text, err := tier1Text(seed)
	if err != nil {
		return nil, err
	}
	clk := &cycles.Clock{}
	procs := make([]*runtimes.Proc, tier1Lanes)
	for i := range procs {
		if procs[i], err = rt.StartProcess(c, text, clk); err != nil {
			return nil, err
		}
	}
	return func(tr *tracer) (*sample, error) { return tier1Run(tr, rt, procs, workers) }, nil
}

// tier1Report is what a tier-1 run reports: the virtual time it took,
// each lane's counters without the block-cache accounting, and the
// X-Kernel's ABOM statistics. Its digest is the reference check.
type tier1Report struct {
	ElapsedCycles cycles.Cycles   `json:"elapsed_cycles"`
	Lanes         []arch.Counters `json:"lanes"`
	ABOM          abom.Stats      `json:"abom"`
}

func tier1Run(tr *tracer, rt *runtimes.Runtime, procs []*runtimes.Proc, workers int) (*sample, error) {
	s := &sample{root: len(tr.spans)}
	endRun := tr.begin("harness.run")
	endSim := tr.begin("runtimes.RunSMP")
	elapsed, err := rt.RunSMP(procs, 0, 1<<40, workers)
	simS := endSim()
	var report []byte
	var rep tier1Report
	if err == nil {
		endRep := tr.begin("xc.report")
		rep.ElapsedCycles = elapsed
		for _, p := range procs {
			rep.Lanes = append(rep.Lanes, p.CPU.Counters.WithoutCacheStats())
		}
		rep.ABOM = rt.Hyper.ABOM.Stats
		report, err = json.MarshalIndent(rep, "", "  ")
		s.layers = map[string]float64{"xc.report_s": endRep()}
	}
	s.run = endRun()
	if err != nil {
		return nil, fmt.Errorf("RunSMP: %w", err)
	}

	var all arch.Counters
	for _, p := range procs {
		c := p.CPU.Counters
		all.Instructions += c.Instructions
		all.RawSyscalls += c.RawSyscalls
		all.VsyscallCalls += c.VsyscallCalls
		all.BlockHits += c.BlockHits
		all.BlockMisses += c.BlockMisses
		all.BlockInvalidations += c.BlockInvalidations
		all.SuperblockHits += c.SuperblockHits
		all.SuperblockSideExits += c.SuperblockSideExits
	}
	if err := checkTier1(&rep, all.Instructions); err != nil {
		return nil, err
	}
	s.digest = digest(report)
	s.ops = float64(all.Instructions)
	s.state = procs
	ab := rep.ABOM
	s.layers["runtimes.smp_run_s"] = simS
	s.layers["arch.instructions"] = float64(all.Instructions)
	s.layers["arch.ns_per_instr"] = simS * 1e9 / float64(all.Instructions)
	s.layers["arch.raw_syscalls"] = float64(all.RawSyscalls)
	s.layers["arch.vsyscall_calls"] = float64(all.VsyscallCalls)
	s.layers["abom.patches"] = float64(ab.Patched7Case1 + ab.Patched7Case2 + ab.Patched9Phase1 + ab.Patched9Phase2)
	s.layers["arch.block_hits"] = float64(all.BlockHits)
	s.layers["arch.block_misses"] = float64(all.BlockMisses)
	s.layers["arch.block_invalidations"] = float64(all.BlockInvalidations)
	s.layers["arch.superblock_hits"] = float64(all.SuperblockHits)
	s.layers["arch.superblock_side_exits"] = float64(all.SuperblockSideExits)
	return s, nil
}

// paperSetup is paper-eval's set-up probe. The §5 experiments boot their
// own platforms inside xc.RunBench, which users pay on every run, so
// that cost stays in run_s; setup_s times the same boot path once per
// runtime kind — platform, one container, one process — outside it.
func paperSetup(uint64, int) (measured, error) {
	text, err := arch.NewAssembler(arch.UserTextBase).SyscallN(uint32(syscalls.Getpid)).Hlt().Assemble()
	if err != nil {
		return nil, err
	}
	for _, k := range xc.Kinds() {
		rt, err := runtimes.New(runtimes.Config{Kind: k, Patched: true, Cloud: runtimes.LocalCluster})
		if err != nil {
			return nil, fmt.Errorf("booting %v: %w", k, err)
		}
		c, err := rt.NewContainer("perfbench-boot", 1, false)
		if err != nil {
			return nil, fmt.Errorf("booting %v: %w", k, err)
		}
		if _, err := rt.StartProcess(c, text, &cycles.Clock{}); err != nil {
			return nil, fmt.Errorf("booting %v: %w", k, err)
		}
	}
	return paperRun, nil
}

func paperRun(tr *tracer) (*sample, error) {
	if ids := xc.BenchIDs(); !slices.Equal(ids, benchIDs) {
		return nil, fmt.Errorf("experiment set changed: xc.BenchIDs() = %v, the benchmark measures %v", ids, benchIDs)
	}
	s := &sample{root: len(tr.spans), layers: map[string]float64{}}
	endRun := tr.begin("harness.run")
	reps := make([]*xc.BenchReport, 0, len(benchIDs))
	var err error
	for _, id := range benchIDs {
		end := tr.begin("bench." + id)
		var rep *xc.BenchReport
		rep, err = xc.RunBench(id)
		s.layers["bench."+id+"_s"] = end()
		if err != nil {
			err = fmt.Errorf("RunBench(%s): %w", id, err)
			break
		}
		reps = append(reps, rep)
	}
	var report []byte
	if err == nil {
		endRep := tr.begin("xc.report")
		text := 0
		for _, r := range reps {
			text += len(r.String())
		}
		report, err = json.MarshalIndent(reps, "", "  ")
		s.layers["xc.report_s"] = endRep()
		if err == nil && text == 0 {
			err = fmt.Errorf("experiments rendered no text")
		}
	}
	s.run = endRun()
	if err != nil {
		return nil, err
	}
	if err := checkPaper(reps); err != nil {
		return nil, err
	}
	s.digest = digest(report)
	s.ops = float64(len(reps))
	s.state = reps
	return s, nil
}
