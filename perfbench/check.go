package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"xcontainers/internal/cluster"
	"xcontainers/xc"
)

// digest is the hex SHA-256 of a rendered report. Reports carry only
// simulated statistics, so a speed change must leave it unchanged.
func digest(report []byte) string {
	h := sha256.Sum256(report)
	return hex.EncodeToString(h[:])
}

//go:embed reference.json
var referenceJSON []byte

// reference is the recorded digest of each workload's report at its
// reference seed. paper-eval takes no input from the seed, so its
// digest is checked on every seed.
type reference struct {
	Seed   uint64 `json:"seed"`
	Digest string `json:"digest"`
	// AnySeed marks a workload whose report does not depend on the seed.
	AnySeed bool `json:"any_seed,omitempty"`
}

func loadReferences(b []byte) (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return refs, nil
}

// checkReference fails when the workload has a recorded digest for
// seed and got differs from it.
func checkReference(refs map[string]reference, workload string, seed uint64, got string) error {
	ref, ok := refs[workload]
	if !ok || (!ref.AnySeed && ref.Seed != seed) {
		return nil
	}
	if got != ref.Digest {
		return fmt.Errorf("%s seed %d: report digest %s, reference %s", workload, seed, got, ref.Digest)
	}
	return nil
}

// checkFleet checks the conservation laws a fleet report must obey.
func checkFleet(r *cluster.Result) error {
	if r.Completed+r.Erred > r.Arrived {
		return fmt.Errorf("fleet finished %d requests (%d completed + %d erred) but only %d arrived",
			r.Completed+r.Erred, r.Completed, r.Erred, r.Arrived)
	}
	if r.Completed == 0 {
		return fmt.Errorf("fleet completed no requests")
	}
	var in, out, live int
	for _, n := range r.Nodes {
		in += n.MigrationsIn
		out += n.MigrationsOut
		live += n.Containers
	}
	if in != len(r.Migrations) || out != len(r.Migrations) {
		return fmt.Errorf("node migration counts (in %d, out %d) do not sum to the %d fleet migrations",
			in, out, len(r.Migrations))
	}
	if live > r.PeakContainers {
		return fmt.Errorf("nodes hold %d live containers, above the peak of %d", live, r.PeakContainers)
	}
	for _, rt := range r.Routes {
		if rt.Completed+rt.Failed > rt.Calls {
			return fmt.Errorf("route %s: %d completed + %d failed exceed %d calls",
				rt.Route, rt.Completed, rt.Failed, rt.Calls)
		}
		if rt.HedgeWins > rt.Hedges {
			return fmt.Errorf("route %s: %d hedge wins exceed %d hedges", rt.Route, rt.HedgeWins, rt.Hedges)
		}
	}
	return nil
}

// checkTier1 checks that each lane executed every syscall site of
// every loop iteration, as a raw trap or a patched call, and that the
// lanes' instructions sum to the reported total.
func checkTier1(rep *tier1Report, total uint64) error {
	if len(rep.Lanes) != tier1Lanes {
		return fmt.Errorf("tier-1 report has %d lanes, want %d", len(rep.Lanes), tier1Lanes)
	}
	var sum uint64
	for i, c := range rep.Lanes {
		if got, want := c.RawSyscalls+c.VsyscallCalls, uint64(2*tier1Loops); got != want {
			return fmt.Errorf("lane %d made %d syscalls (%d raw + %d patched), want %d",
				i, got, c.RawSyscalls, c.VsyscallCalls, want)
		}
		sum += c.Instructions
	}
	if sum != total {
		return fmt.Errorf("lane instructions sum to %d, reported total %d", sum, total)
	}
	ab := rep.ABOM
	if patches := ab.Patched7Case1 + ab.Patched7Case2 + ab.Patched9Phase1 + ab.Patched9Phase2; patches == 0 {
		return fmt.Errorf("ABOM patched no syscall site")
	}
	return nil
}

// checkPaper checks that every experiment produced at least one
// non-empty table.
func checkPaper(reps []*xc.BenchReport) error {
	if len(reps) != len(benchIDs) {
		return fmt.Errorf("%d experiment reports, want %d", len(reps), len(benchIDs))
	}
	for i, r := range reps {
		if r.ID != benchIDs[i] {
			return fmt.Errorf("report %d is %q, want %q", i, r.ID, benchIDs[i])
		}
		rows := 0
		for _, t := range r.Tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			return fmt.Errorf("experiment %s produced no rows", r.ID)
		}
	}
	return nil
}
