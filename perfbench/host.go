package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// Host identifies the machine and build a result was measured on.
// Results from different hosts are not comparable; compare flags them.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GoDebug    string `json:"godebug"`
	Commit     string `json:"commit"`
}

func currentHost(commit string) Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GoDebug:    os.Getenv("GODEBUG"),
		Commit:     commit,
	}
}

// sameMachine reports whether two results were measured on the same
// kind of host; the commit is what a comparison varies.
func (h Host) sameMachine(o Host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func (h Host) String() string {
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %q, %s, GODEBUG %q, commit %s",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GoDebug, h.Commit)
}

// procField returns the value of the first "key: value" line of a
// /proc file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate cpu line of /proc/stat: all ticks, and
// the ticks the hypervisor stole from this machine's CPUs.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealFrac returns the share of CPU time stolen since the ticks t0,
// s0 were read — how much of a run the hypervisor gave to other guests.
func stealFrac(t0, s0 uint64) float64 {
	t1, s1, ok := cpuTicks()
	if !ok || t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// heapWatch tracks the peak live heap — the bytes the last garbage
// collection found reachable — while a workload iteration runs: the
// memory a run needs, independent of when the collector happens to run
// relative to the garbage in flight.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// watchHeap polls the live heap every interval until stop.
func watchHeap(interval time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			w.peak = max(w.peak, liveHeap())
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stopMiB stops the watch and returns its peak in MiB, counting the
// live heap of a collection made while keep — the iteration's results
// and the simulator state behind them — is still reachable.
func (w *heapWatch) stopMiB(keep any) float64 {
	close(w.stop)
	<-w.done
	runtime.GC()
	runtime.KeepAlive(keep)
	return float64(max(w.peak, liveHeap())) / (1 << 20)
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
