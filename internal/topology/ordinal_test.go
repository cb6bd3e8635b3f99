package topology

import "testing"

// TestPathViewNodeOrdinals checks the dense node ordinals every path
// view carries (the hot-path index the probe engine uses in place of
// string-keyed map lookups) against the fabric's own node index, for
// all three path shapes (same-ToR, intra-pod, cross-pod) and for both
// producers (exhaustive enumeration and ECMP hash selection).
func TestPathViewNodeOrdinals(t *testing.T) {
	fab, err := New(Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct{ src, dst NIC }{
		{NIC{Host: 0, Rail: 1}, NIC{Host: 1, Rail: 1}}, // same ToR
		{NIC{Host: 0, Rail: 1}, NIC{Host: 1, Rail: 2}}, // intra-pod via agg
		{NIC{Host: 0, Rail: 1}, NIC{Host: 5, Rail: 1}}, // cross-pod via spine
		{NIC{Host: 2, Rail: 0}, NIC{Host: 7, Rail: 3}}, // cross-pod, distinct rails
	}
	check := func(v *PathView, where string) {
		t.Helper()
		for i, n := range v.Nodes(nil) {
			want, ok := fab.NodeIndex(n)
			if !ok {
				t.Fatalf("%s: node %d (%s) has no fabric ordinal", where, i, n)
			}
			if got := v.NodeOrdinal(i); got != want {
				t.Fatalf("%s: node %d (%s) ordinal = %d, want %d", where, i, n, got, want)
			}
		}
	}
	var v PathView
	for _, pr := range pairs {
		n, err := fab.NumPaths(pr.src, pr.dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fab.pathViewByIndex(pr.src, pr.dst, i, &v)
			check(&v, "enumeration")
		}
		for h := uint64(0); h < 64; h++ {
			if err := fab.PathViewByHash(pr.src, pr.dst, h*0x9e3779b97f4a7c15, &v); err != nil {
				t.Fatal(err)
			}
			check(&v, "hash")
		}
	}
}
