package hcluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthetic embeds items in 1D: class c sits near c*10 with jitter.
type synthetic struct {
	pos   []float64
	items []Item
}

func makeSynthetic(r *rand.Rand, classes, perClass int, hostsPerClassRoundRobin bool) synthetic {
	var s synthetic
	id := 0
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			host := ""
			if hostsPerClassRoundRobin {
				// Item i of every class lives on host i: same-host items
				// are exactly the ones that must NOT share a group.
				host = hostName(i)
			}
			s.pos = append(s.pos, float64(c)*10+r.Float64())
			s.items = append(s.items, Item{ID: id, Host: host})
			id++
		}
	}
	return s
}

func hostName(i int) string { return string(rune('A' + i)) }

func (s synthetic) dist(i, j int) float64 { return math.Abs(s.pos[i] - s.pos[j]) }

func TestClusterRecoversClasses(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	s := makeSynthetic(r, 4, 8, false)
	res, err := Cluster(s.items, s.dist, Options{Unconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(res.Groups))
	}
	for _, g := range res.Groups {
		if len(g) != 8 {
			t.Fatalf("group size %d, want 8", len(g))
		}
		class := g[0] / 8
		for _, m := range g {
			if m/8 != class {
				t.Fatalf("group mixes classes: %v", g)
			}
		}
	}
}

func TestClusterHostConstraint(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	// Two tight classes, but every class has one item per host A..H;
	// groups may never contain two items from the same host.
	s := makeSynthetic(r, 2, 8, true)
	res, err := Cluster(s.items, s.dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		seen := map[string]bool{}
		for _, m := range g {
			h := s.items[m].Host
			if seen[h] {
				t.Fatalf("group %v has two items on host %s", g, h)
			}
			seen[h] = true
		}
	}
}

func TestClusterGroupCountDividesN(t *testing.T) {
	// Constraint 2: with default options the chosen group count divides N.
	r := rand.New(rand.NewSource(37))
	s := makeSynthetic(r, 6, 6, false)
	res, err := Cluster(s.items, s.dist, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if 36%len(res.Groups) != 0 {
		t.Fatalf("group count %d does not divide 36", len(res.Groups))
	}
	if len(res.Groups) != 6 {
		t.Fatalf("got %d groups, want the 6 planted classes", len(res.Groups))
	}
}

func TestClusterDegenerate(t *testing.T) {
	if _, err := Cluster(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for no items")
	}
	res, err := Cluster([]Item{{ID: 0}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || len(res.Groups[0]) != 1 {
		t.Fatalf("single item: %v", res.Groups)
	}
}

func TestClusterRejectsInvalidDistance(t *testing.T) {
	items := []Item{{ID: 0}, {ID: 1}}
	if _, err := Cluster(items, func(i, j int) float64 { return -1 }, Options{}); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := Cluster(items, func(i, j int) float64 { return math.NaN() }, Options{}); err == nil {
		t.Fatal("NaN distance accepted")
	}
}

func TestGroupSizeVariance(t *testing.T) {
	if v := GroupSizeVariance([][]int{{1, 2}, {3, 4}}); v != 0 {
		t.Fatalf("balanced variance = %v", v)
	}
	// Sizes 1 and 3: mean 2, variance ((1)²+(1)²)/2 = 1.
	if v := GroupSizeVariance([][]int{{1}, {2, 3, 4}}); v != 1 {
		t.Fatalf("variance = %v, want 1", v)
	}
	if v := GroupSizeVariance(nil); v != 0 {
		t.Fatalf("empty variance = %v", v)
	}
}

func TestRebalanceEqualizes(t *testing.T) {
	// Three groups of sizes 5/3/4 over 12 items → target 4 each.
	pos := make([]float64, 12)
	items := make([]Item, 12)
	for i := range pos {
		pos[i] = float64(i)
		items[i] = Item{ID: i}
	}
	dist := func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
	groups := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10, 11}}
	got := Rebalance(groups, items, dist, 4)
	for _, g := range got {
		if len(g) != 4 {
			t.Fatalf("rebalanced sizes wrong: %v", got)
		}
	}
}

func TestRebalanceHonoursHosts(t *testing.T) {
	// Oversized group's evictable item shares a host with the only
	// undersized group → no move possible; sizes stay unequal but the
	// host invariant holds.
	items := []Item{
		{ID: 0, Host: "h1"}, {ID: 1, Host: "h2"}, {ID: 2, Host: "h3"},
		{ID: 3, Host: "h1"},
	}
	dist := func(i, j int) float64 { return 1 }
	groups := [][]int{{0, 1, 2}, {3}}
	got := Rebalance(groups, items, dist, 2)
	for _, g := range got {
		seen := map[string]bool{}
		for _, m := range g {
			h := items[m].Host
			if seen[h] {
				t.Fatalf("host constraint violated after rebalance: %v", got)
			}
			seen[h] = true
		}
	}
}

func TestClusterPartitionProperty(t *testing.T) {
	// Property: for any sizes, the result is an exact partition of the
	// items (every index exactly once).
	f := func(seed int64, classesRaw, perClassRaw uint8) bool {
		classes := int(classesRaw%5) + 2   // 2..6
		perClass := int(perClassRaw%5) + 2 // 2..6
		r := rand.New(rand.NewSource(seed))
		s := makeSynthetic(r, classes, perClass, false)
		res, err := Cluster(s.items, s.dist, Options{Unconstrained: true})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, g := range res.Groups {
			for _, m := range g {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == classes*perClass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
