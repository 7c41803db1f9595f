package gpsr

import (
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// gridLayout places nodes on a regular g×g lattice with the given pitch.
// Lattices are adversarial for planarization: every diametral circle
// boundary passes through other lattice points (collinear and cocircular
// degeneracies).
func gridLayout(t *testing.T, g int, pitch float64) *field.Layout {
	t.Helper()
	pts := make([]geo.Point, 0, g*g)
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			pts = append(pts, geo.Pt(float64(x)*pitch, float64(y)*pitch))
		}
	}
	l, err := field.FromPositions(pts, float64(g)*pitch, 40)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLatticeAllPairsDelivery(t *testing.T) {
	l := gridLayout(t, 7, 30) // 49 nodes, 30 m pitch, 40 m range
	if !l.Connected() {
		t.Fatal("lattice must be connected")
	}
	r := New(l)
	for from := 0; from < l.N(); from++ {
		for to := 0; to < l.N(); to++ {
			if _, err := r.RouteToNode(from, to); err != nil {
				t.Fatalf("lattice route %d→%d: %v", from, to, err)
			}
		}
	}
}

func TestCollinearChainDelivery(t *testing.T) {
	// A perfectly collinear chain: every triple is degenerate.
	pts := make([]geo.Point, 12)
	for i := range pts {
		pts[i] = geo.Pt(float64(i)*25, 50)
	}
	l, err := field.FromPositions(pts, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := New(l)
	res, err := r.RouteToNode(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Radio range 40 covers one 25 m step but not two (50 m), so the
	// greedy path steps through every node.
	if res.Hops() != 11 {
		t.Errorf("collinear chain hops = %d, want 11", res.Hops())
	}
}

func TestTwoNodeNetwork(t *testing.T) {
	l, err := field.FromPositions([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}, 50, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := New(l)
	res, err := r.RouteToNode(0, 1)
	if err != nil || res.Hops() != 1 {
		t.Errorf("two-node route: hops %d err %v", res.Hops(), err)
	}
	// Geographic target between them delivers at the closer node.
	home, err := r.HomeNode(0, geo.Pt(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if home != 1 {
		t.Errorf("home of (7,0) = %d, want 1", home)
	}
}

func TestStarTopology(t *testing.T) {
	// A hub with spokes: the hub is on every path.
	pts := []geo.Point{geo.Pt(50, 50)}
	for _, d := range []geo.Point{{X: 30, Y: 0}, {X: -30, Y: 0}, {X: 0, Y: 30}, {X: 0, Y: -30}} {
		pts = append(pts, geo.Pt(50+d.X, 50+d.Y))
	}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := New(l)
	for from := 1; from < 5; from++ {
		for to := 1; to < 5; to++ {
			if from == to {
				continue
			}
			res, err := r.RouteToNode(from, to)
			if err != nil {
				t.Fatalf("star route %d→%d: %v", from, to, err)
			}
			if res.Hops() != 2 {
				t.Errorf("star route %d→%d took %d hops, want 2 (via hub)", from, to, res.Hops())
			}
			if res.Path[1] != 0 {
				t.Errorf("star route %d→%d bypassed the hub: %v", from, to, res.Path)
			}
		}
	}
}

func TestSparseNetworkNearConnectivityThreshold(t *testing.T) {
	// Density 6 neighbours: barely connected deployments exercise
	// perimeter mode hard.
	spec := field.Spec{Nodes: 200, RadioRange: 40, AvgNeighbors: 6}
	l, err := field.Generate(spec, rng.New(77))
	if err != nil {
		t.Skip("could not generate a connected sparse deployment")
	}
	r := New(l)
	src := rng.New(78)
	perimeterUsed := false
	for trial := 0; trial < 500; trial++ {
		from, to := src.Intn(l.N()), src.Intn(l.N())
		res, err := r.RouteToNode(from, to)
		if err != nil {
			t.Fatalf("sparse route %d→%d: %v", from, to, err)
		}
		if res.PerimeterHops > 0 {
			perimeterUsed = true
		}
	}
	if !perimeterUsed {
		t.Error("sparse network never used perimeter mode; test not exercising face routing")
	}
}

func TestClusteredDeploymentDelivery(t *testing.T) {
	spec := field.DefaultSpec(300)
	spec.Clusters, spec.ClusterSpread = 4, 0.12
	l, err := field.Generate(spec, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	r := New(l)
	src := rng.New(80)
	for trial := 0; trial < 500; trial++ {
		from, to := src.Intn(l.N()), src.Intn(l.N())
		if _, err := r.RouteToNode(from, to); err != nil {
			t.Fatalf("clustered route %d→%d: %v", from, to, err)
		}
	}
}

func TestLatticePlanarNoCrossings(t *testing.T) {
	l := gridLayout(t, 6, 30)
	r := New(l)
	type edge struct{ u, v int }
	var edges []edge
	for u := 0; u < l.N(); u++ {
		for _, v := range r.PlanarNeighbors(u) {
			if u < v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	if len(edges) == 0 {
		t.Fatal("lattice planarization removed every edge")
	}
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			a, b := edges[i], edges[j]
			if a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v {
				continue
			}
			s1 := geo.Seg(l.Pos(a.u), l.Pos(a.v))
			s2 := geo.Seg(l.Pos(b.u), l.Pos(b.v))
			if s1.ProperlyIntersects(s2) {
				t.Fatalf("lattice planar edges %v and %v cross", a, b)
			}
		}
	}
}
