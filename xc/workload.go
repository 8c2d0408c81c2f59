package xc

import (
	"fmt"
	"strings"

	"xcontainers/internal/apps"
	"xcontainers/internal/arch"
	"xcontainers/internal/syscalls"
)

// Workload is a buildable binary plus run knobs — what a Platform runs.
// Construct one with App (a Table 1 application model), Program (a raw
// assembled text), or SyscallLoop (a synthetic wrapper loop), then chain
// the knobs:
//
//	w := xc.App("memcached").Iterations(100).Warmup(1)
//
// Builders never fail in place; errors surface from Build or
// Platform.Run, so chains stay fluent.
type Workload struct {
	name    string
	app     *apps.App
	text    *arch.Text
	iters   uint32
	warmup  uint
	observe *ObserveSpec
	err     error
}

const defaultIterations = 50

// App selects one of the paper's application models by name,
// case-insensitively ("memcached", "Redis", "MySQL", "nginx+php-fpm",
// ...). Unknown names surface when the workload is built or run.
func App(name string) *Workload {
	a, err := appByName(name)
	w := &Workload{iters: defaultIterations, err: err}
	if err == nil {
		w.name, w.app = a.Name, a
	} else {
		w.name = name
	}
	return w
}

// Program wraps an already-assembled text segment (built with
// internal/arch's assembler or restored from a checkpoint) as a
// workload named name.
func Program(name string, text *arch.Text) *Workload {
	w := &Workload{name: name, text: text}
	if text == nil {
		w.err = fmt.Errorf("xc: program %q has no text", name)
	}
	return w
}

// SyscallLoop builds the canonical microbenchmark: a loop of iters
// glibc-shaped invocations of the named system call ("getpid", "read",
// ...). It is the program behind the paper's syscall microbenchmarks
// and the quickstart example.
func SyscallLoop(syscall string, iters uint32) *Workload {
	n, err := parseSyscall(syscall)
	w := &Workload{name: "loop:" + syscall, iters: iters, err: err}
	if err != nil {
		return w
	}
	if iters == 0 {
		// The assembler's loop decrements before testing; 0 would wrap.
		w.err = fmt.Errorf("xc: workload %q: iterations must be at least 1", w.name)
		return w
	}
	w.text = arch.NewAssembler(arch.UserTextBase).
		Loop(iters, func(a *arch.Assembler) { a.SyscallN(uint32(n)) }).
		Hlt().MustAssemble()
	return w
}

// Iterations sets how many main-loop iterations the built binary runs
// (application workloads only; Program and SyscallLoop texts are fixed).
func (w *Workload) Iterations(n uint32) *Workload {
	w.iters = n
	return w
}

// Warmup sets how many warm-up passes Platform.Run executes over the
// same text before the measured run. Each pass runs the full binary in
// a throwaway container sharing the text, so under X-Containers the
// ABOM patches every recognizable site first and the measured pass
// shows steady-state (fully converted) behavior — the distinction §5.2
// draws between cold and warmed binaries.
func (w *Workload) Warmup(passes uint) *Workload {
	w.warmup = passes
	return w
}

// Observe arms tier-1 observability for Platform.Run: the report gains
// the interpreter's block-cache section. Without it, the report
// marshals byte-identically to earlier releases.
func (w *Workload) Observe(o *ObserveSpec) *Workload {
	w.observe = o
	return w
}

// Name returns the workload's display name.
func (w *Workload) Name() string { return w.name }

// WarmupPasses returns the configured warm-up pass count.
func (w *Workload) WarmupPasses() uint { return w.warmup }

// Model returns the underlying application model (request profile, site
// population) for flow-level drivers, or nil for raw-program workloads.
func (w *Workload) Model() *apps.App { return w.app }

// Build assembles the workload's binary. Application workloads assemble
// their site population at the configured iteration count; Program and
// SyscallLoop workloads return their fixed text. Every call returns a
// private copy: the ABOM patches binaries in place while they run, so
// sharing one text across platforms would leak patches between runs and
// corrupt comparisons.
func (w *Workload) Build() (*arch.Text, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.text != nil {
		return arch.NewText(w.text.Base, w.text.Bytes()), nil
	}
	// The assembler's loop decrements before testing, so 0 would wrap
	// into ~2^32 iterations; reject it instead of spinning the budget.
	if w.iters == 0 {
		return nil, fmt.Errorf("xc: workload %q: iterations must be at least 1", w.name)
	}
	return w.app.BuildBinary(w.iters, 0) // default granularity
}

// appByName resolves names case-insensitively over the full catalog.
func appByName(name string) (*apps.App, error) {
	name = strings.TrimSpace(name)
	if a, err := apps.ByName(name); err == nil {
		return a, nil
	}
	for _, known := range AppNames() {
		if strings.EqualFold(known, name) {
			return apps.ByName(known)
		}
	}
	return nil, fmt.Errorf("xc: unknown application %q (known: %s)", name, strings.Join(AppNames(), ", "))
}

// Apps returns the application models of the paper's evaluation
// (Table 1 plus the PHP/MySQL and load-balancing studies).
func Apps() []*apps.App {
	out := apps.Table1Apps()
	for _, extra := range []string{"PHP", "MySQL-query", "nginx+php-fpm", "HAProxy"} {
		a, err := apps.ByName(extra)
		if err == nil {
			out = append(out, a)
		}
	}
	return out
}

// AppNames returns the catalog's application names in listing order.
func AppNames() []string {
	all := Apps()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// syscallByName is the reverse of syscalls.No.String over the ABI table.
var syscallByName = func() map[string]syscalls.No {
	m := make(map[string]syscalls.No)
	for n := syscalls.No(0); n < syscalls.MaxNo; n++ {
		s := n.String()
		if !strings.HasPrefix(s, "sys_") {
			m[s] = n
		}
	}
	return m
}()

func parseSyscall(s string) (syscalls.No, error) {
	if n, ok := syscallByName[strings.ToLower(strings.TrimSpace(s))]; ok {
		return n, nil
	}
	return 0, fmt.Errorf("xc: unknown syscall %q", s)
}
