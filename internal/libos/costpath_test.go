package libos_test

// X-LibOS interrupt delivery is charged by the runtimes tier-2 cost
// functions; an external test package is needed because runtimes imports
// libos.

import (
	"testing"

	"xcontainers/internal/cycles"
	"xcontainers/internal/runtimes"
)

func TestInterruptDeliveryUserMode(t *testing.T) {
	for _, patched := range []bool{false, true} {
		x := runtimes.MustNew(runtimes.Config{Kind: runtimes.XContainer, Patched: patched, Cloud: runtimes.LocalCluster}).InterruptCost()
		// Must be far cheaper than a trap-based delivery.
		if x >= cycles.Default.EventChannelDeliver {
			t.Errorf("patched=%v: user-mode delivery cost %d not cheaper than trapping %d",
				patched, x, cycles.Default.EventChannelDeliver)
		}
		if want := cycles.Default.EventChannelUserMode + cycles.Default.IretUserMode; x != want {
			t.Errorf("patched=%v: X-LibOS interrupt cost %d, want user-mode delivery + iret %d", patched, x, want)
		}
	}
}
