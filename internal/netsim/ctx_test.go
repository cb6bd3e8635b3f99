package netsim

import "testing"

// TestProbeCtxPartitioningInvariant is the determinism contract of the
// parallel round engine at the netsim layer: the same probe sequence
// split across any number of worker contexts must produce bit-identical
// per-probe results, and — after CommitQueues merges the integer
// tallies at the round barrier — bit-identical queue state. (Contexts
// are exercised serially here; concurrent execution is certified by the
// hunter race campaign under -race.)
func TestProbeCtxPartitioningInvariant(t *testing.T) {
	type outcome struct {
		lost bool
		rtt  int64
		path string
	}
	run := func(nctx int) ([]outcome, []queueState) {
		n, a, b := world(t)
		n.TransientCongestionProb = 0.3
		ctxs := make([]*ProbeCtx, nctx)
		for i := range ctxs {
			ctxs[i] = n.NewProbeCtx()
		}
		var res Result
		out := make([]outcome, 0, 300)
		for i := 0; i < 300; i++ {
			n.ProbeIntoCtx(ctxs[i%nctx], &res, a, b, uint64(i))
			p := ""
			for _, l := range res.UnderlayPath {
				p += string(n.Fabric.LinkByIndex(l)) + "|"
			}
			out = append(out, outcome{lost: res.Lost, rtt: int64(res.RTT), path: p})
		}
		n.CommitQueues(ctxs...)
		return out, append([]queueState(nil), n.queueD...)
	}

	base, baseQ := run(1)
	for _, nctx := range []int{2, 4, 16} {
		got, gotQ := run(nctx)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("nctx=%d probe %d = %+v, want %+v", nctx, i, got[i], base[i])
			}
		}
		for ord := range baseQ {
			if gotQ[ord] != baseQ[ord] {
				t.Fatalf("nctx=%d queue[ord %d] = %+v, want %+v", nctx, ord, gotQ[ord], baseQ[ord])
			}
		}
	}
}
