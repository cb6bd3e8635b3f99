package probe

import (
	"time"

	"skeletonhunter/internal/netsim"
)

// RunRound runs one of the agent's rounds outside the round engine —
// the prologue, then probing on the caller's context — and returns the
// batch the round would deliver (nil when the round is skipped).
func (a *OverlayAgent) RunRound(ctx *netsim.ProbeCtx, now time.Duration) Batch {
	if !a.prepareRound(now) {
		return nil
	}
	a.executeRound(ctx, now)
	return a.batch
}
