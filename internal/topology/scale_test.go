package topology

import (
	"math/rand"
	"testing"
)

// randomSpec draws a small-but-varied multi-pod spec so every pair
// class (same-rail, cross-rail, cross-pod) exists.
func randomSpec(rng *rand.Rand) Spec {
	return Spec{
		Pods:        2 + rng.Intn(3),
		HostsPerPod: 2 + rng.Intn(4),
		Rails:       2 + rng.Intn(4),
		AggPerPod:   1 + rng.Intn(4),
		Spines:      1 + rng.Intn(4),
	}
}

// pairClasses returns one NIC pair of each class for a spec.
func pairClasses(s Spec) map[string][2]NIC {
	return map[string][2]NIC{
		"same-pod-same-rail":  {{Host: 0, Rail: 1}, {Host: 1, Rail: 1}},
		"same-pod-cross-rail": {{Host: 0, Rail: 0}, {Host: 1, Rail: s.Rails - 1}},
		"cross-pod":           {{Host: 0, Rail: 1}, {Host: s.HostsPerPod, Rail: 1}},
		"cross-pod-x-rail":    {{Host: 1, Rail: 0}, {Host: s.HostsPerPod + 1, Rail: s.Rails - 1}},
	}
}

func viewKey(v *PathView) string {
	return materializedKey(v.Materialize())
}

func materializedKey(p Path) string {
	var key string
	for _, n := range p.Nodes {
		key += string(n) + ">"
	}
	key += "|"
	for _, l := range p.Links {
		key += string(l) + ">"
	}
	return key
}

// TestPathEnumerationsAgree is the satellite property test: across
// randomized specs and every pair class, Paths returns NumPaths
// distinct paths, and PathViewByHash selects path hash mod NumPaths of
// that enumeration, with link ordinals that round-trip.
func TestPathEnumerationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		spec := randomSpec(rng)
		fab, err := New(spec)
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		for class, pair := range pairClasses(spec) {
			src, dst := pair[0], pair[1]
			paths, err := fab.Paths(src, dst)
			if err != nil {
				t.Fatalf("%s %+v: Paths: %v", class, spec, err)
			}
			n, err := fab.NumPaths(src, dst)
			if err != nil {
				t.Fatalf("%s: NumPaths: %v", class, err)
			}
			if n != len(paths) {
				t.Fatalf("%s %+v: NumPaths=%d but Paths returned %d", class, spec, n, len(paths))
			}
			seen := make(map[string]bool, n)
			for i, p := range paths {
				key := materializedKey(p)
				if seen[key] {
					t.Fatalf("%s %+v idx %d: path enumerated twice: %s", class, spec, i, key)
				}
				seen[key] = true
			}
			// PathViewByHash selects from the same enumeration.
			for _, h := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
				var v PathView
				if err := fab.PathViewByHash(src, dst, h, &v); err != nil {
					t.Fatalf("%s: PathViewByHash: %v", class, err)
				}
				if got, want := viewKey(&v), materializedKey(paths[h%uint64(n)]); got != want {
					t.Fatalf("%s hash %d:\n view  %s\n Paths %s", class, h, got, want)
				}
				for j, l := range v.links[:v.n-1] {
					if fab.LinkByIndex(v.LinkOrdinal(j)) != l {
						t.Fatalf("%s hash %d link %d: ordinal %d does not round-trip", class, h, j, v.LinkOrdinal(j))
					}
				}
			}
		}
	}
}

// TestInternedIDsStable checks the accessor IDs match their formatted
// forms and return identical strings across calls (interning).
func TestInternedIDsStable(t *testing.T) {
	fab, err := New(Spec{Pods: 2, HostsPerPod: 3, Rails: 2, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fab.NICID(4, 1), (NIC{Host: 4, Rail: 1}).ID(); got != want {
		t.Fatalf("NICID = %q, want %q", got, want)
	}
	if got, want := fab.ToR(1, 1), NodeID("tor/p1/r1"); got != want {
		t.Fatalf("ToR = %q, want %q", got, want)
	}
	if got, want := fab.Agg(1, 0), NodeID("agg/p1/a0"); got != want {
		t.Fatalf("Agg = %q, want %q", got, want)
	}
	if got, want := fab.Spine(1), NodeID("spine/s1"); got != want {
		t.Fatalf("Spine = %q, want %q", got, want)
	}
	// Out-of-range accessors still format (never panic).
	if got, want := fab.ToR(9, 9), NodeID("tor/p9/r9"); got != want {
		t.Fatalf("out-of-range ToR = %q, want %q", got, want)
	}
}

// TestLinkOrdinalsDense checks ordinals cover [0, NumLinks) bijectively.
func TestLinkOrdinalsDense(t *testing.T) {
	fab, err := New(Spec{Pods: 2, HostsPerPod: 2, Rails: 2, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := fab.NumLinks()
	seen := make(map[LinkID]bool, n)
	for ord := int32(0); ord < int32(n); ord++ {
		id := fab.LinkByIndex(ord)
		if seen[id] {
			t.Fatalf("ordinal %d repeats link %s", ord, id)
		}
		seen[id] = true
		back, ok := fab.LinkIndex(id)
		if !ok || back != ord {
			t.Fatalf("LinkIndex(%s) = %d,%v want %d", id, back, ok, ord)
		}
	}
}

// TestPathByHashSingleNoMaterialize pins the satellite bugfix: the
// single-path (same-pod same-rail) case of the hash lookup must go
// through pathViewByIndex, so the view form allocates nothing at all.
func TestPathByHashSingleNoMaterialize(t *testing.T) {
	fab, err := New(Spec{Pods: 2, HostsPerPod: 4, Rails: 2, AggPerPod: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := NIC{Host: 0, Rail: 0}, NIC{Host: 1, Rail: 0}
	var v PathView
	allocs := testing.AllocsPerRun(200, func() {
		if err := fab.PathViewByHash(src, dst, 12345, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PathViewByHash (n==1) allocates %.1f objects/op, want 0", allocs)
	}
}
