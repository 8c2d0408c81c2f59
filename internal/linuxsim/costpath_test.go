package linuxsim_test

// The guest-kernel context-switch charge is made by the runtimes tier-2
// cost functions; an external test package is needed because runtimes
// imports linuxsim.

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
)

func TestKernelContextSwitchGlobalBit(t *testing.T) {
	// §4.3: a kernel whose mappings carry the global bit keeps them across
	// an address-space switch; a stock PV guest kernel has no global bit
	// and pays the full flush.
	if cycles.Default.AddressSpaceSwitchNoGlobal <= cycles.Default.AddressSpaceSwitch {
		t.Errorf("no-global switch (%d) must cost more than a global-bit one (%d)",
			cycles.Default.AddressSpaceSwitchNoGlobal, cycles.Default.AddressSpaceSwitch)
	}
	noGlobal := cycles.Default
	noGlobal.AddressSpaceSwitchNoGlobal += 1000
	for _, c := range []struct {
		kind          runtimes.Kind
		wantIncrement cycles.Cycles
	}{
		{runtimes.Docker, 0},
		{runtimes.XContainer, 0},
		{runtimes.XenContainer, 1000},
	} {
		base := runtimes.MustNew(runtimes.Config{Kind: c.kind, Cloud: runtimes.LocalCluster}).CtxSwitch(true)
		bumped := runtimes.MustNew(runtimes.Config{Kind: c.kind, Cloud: runtimes.LocalCluster, Costs: &noGlobal}).CtxSwitch(true)
		if d := bumped - base; d != c.wantIncrement {
			t.Errorf("%v: no-global flush increment moved the switch cost by %d, want %d", c.kind, d, c.wantIncrement)
		}
	}
}
