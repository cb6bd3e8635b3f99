package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func testSpec() Spec {
	return Spec{Pods: 2, HostsPerPod: 4, Rails: 4, AggPerPod: 2, Spines: 3}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	if _, err := New(Spec{Pods: 2, HostsPerPod: 1, Rails: 1, AggPerPod: 1, Spines: 0}); err == nil {
		t.Fatal("multi-pod spec without spines accepted")
	}
	if _, err := New(Spec{Pods: 1, HostsPerPod: 1, Rails: 1, AggPerPod: 1}); err != nil {
		t.Fatalf("minimal single-pod spec rejected: %v", err)
	}
}

func TestLinkCount(t *testing.T) {
	f, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// NIC-ToR: hosts×rails = 8×4 = 32
	// ToR-Agg: pods×rails×agg = 2×4×2 = 16
	// Agg-Spine: pods×agg×spines = 2×2×3 = 12
	if got, want := f.NumLinks(), 32+16+12; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestSameRailSamePodPath(t *testing.T) {
	f, _ := New(testSpec())
	paths, err := f.Paths(NIC{Host: 0, Rail: 2}, NIC{Host: 3, Rail: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("same-rail same-pod paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if len(p.Nodes) != 3 || p.Nodes[1] != f.ToR(0, 2) {
		t.Fatalf("unexpected path %v", p.Nodes)
	}
	if len(p.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(p.Links))
	}
}

func TestCrossRailSamePodPaths(t *testing.T) {
	f, _ := New(testSpec())
	paths, err := f.Paths(NIC{Host: 0, Rail: 0}, NIC{Host: 1, Rail: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != f.Spec.AggPerPod {
		t.Fatalf("cross-rail paths = %d, want %d", len(paths), f.Spec.AggPerPod)
	}
	for _, p := range paths {
		if len(p.Nodes) != 5 {
			t.Fatalf("cross-rail path length %d, want 5 nodes", len(p.Nodes))
		}
	}
}

func TestCrossPodPaths(t *testing.T) {
	f, _ := New(testSpec())
	src, dst := NIC{Host: 0, Rail: 1}, NIC{Host: 5, Rail: 1}
	paths, err := f.Paths(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * 2 // agg × spine × agg
	if len(paths) != want {
		t.Fatalf("cross-pod paths = %d, want %d", len(paths), want)
	}
	n, err := f.NumPaths(src, dst)
	if err != nil || n != want {
		t.Fatalf("NumPaths = %d/%v, want %d", n, err, want)
	}
	// All paths distinct.
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		for _, node := range p.Nodes {
			key += string(node) + ">"
		}
		if seen[key] {
			t.Fatalf("duplicate path %s", key)
		}
		seen[key] = true
	}
}

func TestPathErrors(t *testing.T) {
	f, _ := New(testSpec())
	if _, err := f.Paths(NIC{0, 1}, NIC{0, 1}); err != ErrSameNIC {
		t.Fatalf("err = %v, want ErrSameNIC", err)
	}
	if _, err := f.Paths(NIC{0, 1}, NIC{0, 2}); err != ErrIntraHost {
		t.Fatalf("err = %v, want ErrIntraHost", err)
	}
}

func TestPathByHashDeterministicAndValid(t *testing.T) {
	f, _ := New(testSpec())
	src, dst := NIC{Host: 1, Rail: 0}, NIC{Host: 6, Rail: 2}
	all, _ := f.Paths(src, dst)
	valid := map[string]bool{}
	for _, p := range all {
		valid[pathKey(p)] = true
	}
	hit := map[string]bool{}
	var v PathView
	for h := uint64(0); h < 200; h++ {
		if err := f.PathViewByHash(src, dst, h, &v); err != nil {
			t.Fatal(err)
		}
		p1 := v.Materialize()
		if err := f.PathViewByHash(src, dst, h, &v); err != nil {
			t.Fatal(err)
		}
		if pathKey(p1) != pathKey(v.Materialize()) {
			t.Fatal("PathViewByHash not deterministic")
		}
		if !valid[pathKey(p1)] {
			t.Fatalf("PathViewByHash produced a path not in Paths(): %v", p1.Nodes)
		}
		hit[pathKey(p1)] = true
	}
	// With 200 hashes over 12 paths, expect full coverage.
	if len(hit) != len(all) {
		t.Fatalf("hash selection covered %d/%d paths", len(hit), len(all))
	}
}

func pathKey(p Path) string {
	k := ""
	for _, n := range p.Nodes {
		k += string(n) + ">"
	}
	return k
}

func TestPathLinksMatchNodes(t *testing.T) {
	f, _ := New(testSpec())
	// Property: every enumerated path has links that exist in the fabric
	// (they have an ordinal) and connect consecutive nodes.
	check := func(src, dst NIC) bool {
		paths, err := f.Paths(src, dst)
		if err != nil {
			return true
		}
		for _, p := range paths {
			if len(p.Links) != len(p.Nodes)-1 {
				return false
			}
			for i, l := range p.Links {
				if _, ok := f.LinkIndex(l); !ok {
					return false
				}
				if l != MakeLinkID(p.Nodes[i], p.Nodes[i+1]) {
					return false
				}
			}
		}
		return true
	}
	fn := func(h1, r1, h2, r2 uint8) bool {
		src := NIC{Host: int(h1) % 8, Rail: int(r1) % 4}
		dst := NIC{Host: int(h2) % 8, Rail: int(r2) % 4}
		return check(src, dst)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProductionSpec(t *testing.T) {
	s := Production(64)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Rails != 8 {
		t.Fatalf("production rails = %d, want 8", s.Rails)
	}
	if s.Pods*s.HostsPerPod < 64 {
		t.Fatalf("production spec holds %d hosts, want ≥ 64", s.Pods*s.HostsPerPod)
	}
	f, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() < 64 {
		t.Fatal("fabric smaller than requested")
	}
}

func TestMakeLinkIDCanonical(t *testing.T) {
	a, b := NodeID("x"), NodeID("y")
	if MakeLinkID(a, b) != MakeLinkID(b, a) {
		t.Fatal("link ID not canonical under endpoint order")
	}
}

func TestHostsUnder(t *testing.T) {
	f, _ := New(testSpec())
	pod0 := []int{0, 1, 2, 3}
	pod1 := []int{4, 5, 6, 7}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		node NodeID
		want []int
	}{
		{f.ToR(0, 2), pod0},
		{f.Agg(0, 1), pod0},
		{f.ToR(1, 0), pod1}, // the last pod
		{f.Agg(1, 0), pod1},
		{f.Spine(2), all},
		{f.NICID(0, 0), nil},    // not a switch
		{"tor/p2/r0", nil},      // pod out of range
		{"agg/p-1/a0", nil},     // negative pod
		{"tor/garbage", nil},    // unparsable
		{"switch/unknown", nil}, // unknown kind
	} {
		if got := f.HostsUnder(tc.node); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("HostsUnder(%s) = %v, want %v", tc.node, got, tc.want)
		}
	}
}
