package xc

import (
	"bytes"
	"testing"
)

// The sharded engine's public contract at the report level: for one
// ClusterSpec and seed, the ClusterReport JSON is byte-identical for
// any Shards >= 1 and any ShardWorkers. (Shards == 0 is the original
// instantaneous-routing engine and legitimately differs.)

func shardReport(t *testing.T, spec ClusterSpec, tr *TrafficSpec) []byte {
	t.Helper()
	c, err := NewCluster(XContainer)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Serve(App("memcached"), spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestClusterShardInvariantJSON: the breach scenario — autoscale, SLO
// pressure, a node failure mid-run — must render byte-identical JSON at
// 1, 2, and 8 shards, for any worker count.
func TestClusterShardInvariantJSON(t *testing.T) {
	spec, _ := breachSpec()
	spec.FailNode = 0.2
	var want []byte
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{0, 1, 3} {
			s := spec
			s.Shards, s.ShardWorkers = shards, workers
			got := shardReport(t, s, Traffic().Rate(1_200_000).Duration(0.5).Seed(7))
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("Shards=%d ShardWorkers=%d diverged from Shards=1", shards, workers)
			}
		}
	}
}

// TestClusterShardInvariantIngressJSON: the same invariance holds with
// the L7 ingress tier's retry/hedge machinery in front of the fleet, and
// the report is pinned byte for byte in testdata.
func TestClusterShardInvariantIngressJSON(t *testing.T) {
	spec := ClusterSpec{
		Nodes:    2,
		MaxNodes: 4,
		Replicas: 4,
		Policy:   Spread,
		FailNode: 0.15,
		Ingress: Ingress().Policy(PowerOfTwo).KeepAlive(64).
			TimeoutMicros(400).Retries(2).BackoffMicros(50).RetryBudget(0.2).Hedge(0.95),
	}
	var want []byte
	for _, shards := range []int{1, 2, 8} {
		s := spec
		s.Shards = shards
		got := shardReport(t, s, Traffic().Rate(500_000).Duration(0.4).Seed(3))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("ingress fleet diverged at Shards=%d", shards)
		}
	}
	// Pin the bytes too: invariance across shard counts cannot see a
	// change that moves every shard count the same way.
	checkGolden(t, "cluster_ingress_sharded.json", want)
}

// TestClusterEpochIsModelParameter: EpochMicros changes results (the
// documented quantization knob); a spec that ties it to Shards by
// accident would break the invariance tests above, and this pins the
// knob itself working.
func TestClusterEpochIsModelParameter(t *testing.T) {
	spec, _ := breachSpec()
	spec.Shards = 2
	a := spec
	a.EpochMicros = 100
	b := spec
	b.EpochMicros = 5000
	ra := shardReport(t, a, Traffic().Rate(1_200_000).Duration(0.3).Seed(7))
	rb := shardReport(t, b, Traffic().Rate(1_200_000).Duration(0.3).Seed(7))
	if bytes.Equal(ra, rb) {
		t.Error("EpochMicros 100 and 5000 produced identical reports — the barrier period is not wired through")
	}
}
