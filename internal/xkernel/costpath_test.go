package xkernel_test

// The X-Kernel's event, iret and vCPU-switch charges are made by the
// runtimes tier-2 cost functions, which every run path uses. These tests
// hold the §4.2/§4.3 claims to those functions; an external test package
// is needed because runtimes imports xkernel.

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
)

func interruptCost(kind runtimes.Kind, patched bool, costs *cycles.CostTable) cycles.Cycles {
	return runtimes.MustNew(runtimes.Config{Kind: kind, Patched: patched, Cloud: runtimes.LocalCluster, Costs: costs}).InterruptCost()
}

func TestEventDelivery(t *testing.T) {
	// §4.2: the X-Kernel delivers events by emulating the interrupt frame
	// in guest user mode; stock PV traps into the hypervisor.
	for _, patched := range []bool{false, true} {
		if x, pv := interruptCost(runtimes.XContainer, patched, nil), interruptCost(runtimes.XenContainer, patched, nil); x >= pv {
			t.Errorf("patched=%v: user-mode event delivery (%d) must be cheaper than trapping (%d)", patched, x, pv)
		}
	}
	// Each path charges its own delivery constant and not the other's.
	trap := cycles.Default
	trap.EventChannelDeliver += 1000
	user := cycles.Default
	user.EventChannelUserMode += 1000
	for _, c := range []struct {
		kind          runtimes.Kind
		costs         *cycles.CostTable
		wantIncrement cycles.Cycles
	}{
		{runtimes.XContainer, &trap, 0},
		{runtimes.XContainer, &user, 1000},
		{runtimes.XenContainer, &trap, 1000},
		{runtimes.XenContainer, &user, 0},
	} {
		if d := interruptCost(c.kind, false, c.costs) - interruptCost(c.kind, false, nil); d != c.wantIncrement {
			t.Errorf("%v: delivery-constant increment moved interrupt cost by %d, want %d", c.kind, d, c.wantIncrement)
		}
	}
}

func TestIretModes(t *testing.T) {
	// §4.2: stock PV returns from an interrupt with an iret hypercall;
	// the X-Kernel lets the guest iret in user mode.
	hyper := cycles.Default
	hyper.IretHypercall += 1000
	if d := interruptCost(runtimes.XenContainer, false, &hyper) - interruptCost(runtimes.XenContainer, false, nil); d != 1000 {
		t.Errorf("stock PV iret must hypercall: IretHypercall increment moved cost by %d, want 1000", d)
	}
	if d := interruptCost(runtimes.XContainer, false, &hyper) - interruptCost(runtimes.XContainer, false, nil); d != 0 {
		t.Errorf("X-Kernel iret must not hypercall: IretHypercall increment moved cost by %d", d)
	}
	if cycles.Default.IretUserMode >= cycles.Default.IretHypercall {
		t.Errorf("user-mode iret (%d) must be cheaper than the hypercall (%d)",
			cycles.Default.IretUserMode, cycles.Default.IretHypercall)
	}
}

func TestVCPUSwitchTLBBehaviour(t *testing.T) {
	ctx := func(costs *cycles.CostTable, same bool) cycles.Cycles {
		return runtimes.MustNew(runtimes.Config{Kind: runtimes.XContainer, Cloud: runtimes.LocalCluster, Costs: costs}).CtxSwitch(same)
	}
	// Same-container switch: global entries survive, so the no-global
	// full flush is not charged.
	noGlobal := cycles.Default
	noGlobal.AddressSpaceSwitchNoGlobal += 1000
	if d := ctx(&noGlobal, true) - ctx(nil, true); d != 0 {
		t.Errorf("same-container switch charged a full TLB flush: moved by %d", d)
	}
	// Cross-container switch: full flush, even global entries.
	cross := cycles.Default
	cross.CrossContainerSwitch += 1000
	if d := ctx(&cross, false) - ctx(nil, false); d != 1000 {
		t.Errorf("cross-container switch must charge the full flush: moved by %d, want 1000", d)
	}
	if d := ctx(&cross, true) - ctx(nil, true); d != 0 {
		t.Errorf("same-container switch charged the cross-container flush: moved by %d", d)
	}
	if ctx(nil, false) <= ctx(nil, true) {
		t.Errorf("cross-container switch (%d) must cost more than a same-container one (%d)", ctx(nil, false), ctx(nil, true))
	}
}
