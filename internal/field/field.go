// Package field models the physical deployment of a sensor network: node
// placement, neighbour discovery, and connectivity.
//
// The paper's simulation model (§5.1) places nodes uniformly at random in a
// square field sized so that every node has on average 20 neighbours within
// its 40 m radio range. Layout implements exactly that sizing rule and
// provides the spatial queries (neighbour tables, nearest node) the routing
// and storage layers need.
package field

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pooldcs/internal/geo"
	"pooldcs/internal/rng"
)

// Spec describes a deployment to generate.
type Spec struct {
	// Nodes is the number of sensors to place.
	Nodes int
	// RadioRange is the nominal radio range in metres (paper: 40 m).
	RadioRange float64
	// AvgNeighbors is the target mean number of nodes within radio range
	// of each node (paper: 20). It determines the field side length.
	AvgNeighbors float64
	// Clusters, when positive, places the nodes in that many Gaussian
	// clusters instead of uniformly; zero keeps the paper's uniform
	// placement.
	Clusters int
	// ClusterSpread is the clusters' standard deviation as a fraction of
	// the field side (used only when Clusters is positive).
	ClusterSpread float64
}

// DefaultSpec returns the paper's §5.1 deployment parameters for n nodes.
func DefaultSpec(n int) Spec {
	return Spec{Nodes: n, RadioRange: 40, AvgNeighbors: 20}
}

// Side returns the field side length implied by the density rule:
// expected neighbours = N · π·r² / side², solved for side.
func (s Spec) Side() float64 {
	return math.Sqrt(float64(s.Nodes) * math.Pi * s.RadioRange * s.RadioRange / s.AvgNeighbors)
}

// Validate checks the spec for usable values.
func (s Spec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("field: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.RadioRange <= 0 {
		return fmt.Errorf("field: radio range must be positive, got %v", s.RadioRange)
	}
	if s.AvgNeighbors <= 0 {
		return fmt.Errorf("field: average neighbours must be positive, got %v", s.AvgNeighbors)
	}
	if s.Clusters < 0 {
		return fmt.Errorf("field: cluster count must not be negative, got %d", s.Clusters)
	}
	if s.Clusters > 0 && s.ClusterSpread <= 0 {
		return fmt.Errorf("field: cluster spread must be positive, got %v", s.ClusterSpread)
	}
	return nil
}

// Layout is a generated deployment: node positions plus derived spatial
// indices. Node IDs are indices into Positions.
type Layout struct {
	// Spec the layout was generated from.
	Spec Spec
	// Side is the field side length in metres.
	Side float64
	// Positions holds one location per node.
	Positions []geo.Point

	neighbors [][]int
	buckets   map[bucketKey][]int
	bucketLen float64
}

// ErrDisconnected is returned when a connected deployment could not be
// generated within the attempt budget.
var ErrDisconnected = errors.New("field: could not generate a connected deployment")

// Generate places nodes per spec, retrying until the induced unit-disc
// graph is connected. Uniform placement (at the paper's density this
// almost always succeeds on the first try) fails with ErrDisconnected
// after 50 attempts.
//
// With spec.Clusters positive the nodes land in Gaussian clusters
// instead: cluster centres are drawn uniformly, and each node lands near
// a random centre with spread spec.ClusterSpread (as a fraction of the
// field side). Clustered deployments stress the paper's dense-uniform
// assumption — grid cells in the gaps have no nearby sensors — and get
// 200 attempts.
func Generate(spec Spec, src *rng.Source) (*Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	side := spec.Side()
	place, maxAttempts := uniform, 50
	if spec.Clusters > 0 {
		place, maxAttempts = clustered, 200
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		l := &Layout{Spec: spec, Side: side, Positions: place(spec, side, src)}
		l.index()
		if l.Connected() {
			return l, nil
		}
	}
	return nil, ErrDisconnected
}

// uniform draws one uniform placement.
func uniform(spec Spec, side float64, src *rng.Source) []geo.Point {
	pts := make([]geo.Point, spec.Nodes)
	for i := range pts {
		pts[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
	}
	return pts
}

// clustered draws one Gaussian-cluster placement.
func clustered(spec Spec, side float64, src *rng.Source) []geo.Point {
	centers := make([]geo.Point, spec.Clusters)
	for i := range centers {
		centers[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
	}
	spread := spec.ClusterSpread * side
	pts := make([]geo.Point, spec.Nodes)
	for i := range pts {
		c := centers[src.Intn(spec.Clusters)]
		// Rejection-sample into the field: clamping would pile nodes onto
		// identical border coordinates, which breaks the distinct-position
		// assumption downstream (routing, k-d splits).
		placed := false
		for draw := 0; draw < 100; draw++ {
			p := geo.Pt(src.Normal(c.X, spread), src.Normal(c.Y, spread))
			if p.X >= 0 && p.X < side && p.Y >= 0 && p.Y < side {
				pts[i] = p
				placed = true
				break
			}
		}
		if !placed {
			pts[i] = geo.Pt(src.Uniform(0, side), src.Uniform(0, side))
		}
	}
	return pts
}

// FromPositions builds a Layout from explicit node positions (used by unit
// tests and the paper's small worked examples). side must enclose all
// positions.
func FromPositions(positions []geo.Point, side, radioRange float64) (*Layout, error) {
	if len(positions) < 1 {
		return nil, errors.New("field: no positions")
	}
	for i, p := range positions {
		if p.X < 0 || p.Y < 0 || p.X > side || p.Y > side {
			return nil, fmt.Errorf("field: node %d at %v outside [0,%v]²", i, p, side)
		}
	}
	l := &Layout{
		Spec: Spec{Nodes: len(positions), RadioRange: radioRange, AvgNeighbors: 0},
		Side: side,
		// Copy: callers keep ownership of their slice.
		Positions: append([]geo.Point(nil), positions...),
	}
	l.index()
	return l, nil
}

// index builds the bucket grid and neighbour tables. Buckets have side
// equal to the radio range, so neighbour scans only touch the 3×3 block of
// buckets around a node.
func (l *Layout) index() {
	r := l.Spec.RadioRange
	l.bucketLen = r
	l.buckets = make(map[bucketKey][]int, len(l.Positions))
	for i, p := range l.Positions {
		k := l.bucketOf(p)
		l.buckets[k] = append(l.buckets[k], i)
	}

	// Adjacency is built in two passes into one flat backing array —
	// count degrees, then fill — so a layout costs a constant number of
	// allocations instead of per-node append-doubling.
	r2 := r * r
	n := len(l.Positions)
	total := 0
	for i, p := range l.Positions {
		k := l.bucketOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range l.buckets[bucketKey{k.x + dx, k.y + dy}] {
					if j != i && p.Dist2(l.Positions[j]) <= r2 {
						total++
					}
				}
			}
		}
	}
	flat := make([]int, 0, total)
	l.neighbors = make([][]int, n)
	for i, p := range l.Positions {
		k := l.bucketOf(p)
		from := len(flat)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range l.buckets[bucketKey{k.x + dx, k.y + dy}] {
					if j != i && p.Dist2(l.Positions[j]) <= r2 {
						flat = append(flat, j)
					}
				}
			}
		}
		nbrs := flat[from:len(flat):len(flat)]
		sort.Ints(nbrs)
		l.neighbors[i] = nbrs
	}
}

type bucketKey struct{ x, y int }

func (l *Layout) bucketOf(p geo.Point) bucketKey {
	return bucketKey{int(p.X / l.bucketLen), int(p.Y / l.bucketLen)}
}

// N returns the number of nodes.
func (l *Layout) N() int { return len(l.Positions) }

// Pos returns the position of node id.
func (l *Layout) Pos(id int) geo.Point { return l.Positions[id] }

// Bounds returns the field rectangle.
func (l *Layout) Bounds() geo.Rect {
	return geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(l.Side, l.Side)}
}

// Neighbors returns the IDs of the nodes within radio range of id, sorted
// ascending. The returned slice is owned by the layout; callers must not
// modify it.
func (l *Layout) Neighbors(id int) []int { return l.neighbors[id] }

// AvgDegree returns the mean neighbour count over all nodes.
func (l *Layout) AvgDegree() float64 {
	total := 0
	for _, n := range l.neighbors {
		total += len(n)
	}
	return float64(total) / float64(len(l.neighbors))
}

// Connected reports whether the unit-disc graph is a single component.
func (l *Layout) Connected() bool {
	n := len(l.Positions)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range l.neighbors[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Nearest returns the ID of the node closest to p (ties broken by lower
// ID). It expands the bucket search ring until a candidate is found, then
// one more ring to guarantee correctness near bucket borders.
func (l *Layout) Nearest(p geo.Point) int {
	center := l.bucketOf(p)
	best, bestD2 := -1, math.Inf(1)
	scan := func(ring int) {
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				if maxAbs(dx, dy) != ring {
					continue // only the ring's border cells
				}
				for _, j := range l.buckets[bucketKey{center.x + dx, center.y + dy}] {
					if d2 := p.Dist2(l.Positions[j]); d2 < bestD2 {
						best, bestD2 = j, d2
					}
				}
			}
		}
	}
	maxRing := int(l.Side/l.bucketLen) + 2
	for ring := 0; ring <= maxRing; ring++ {
		scan(ring)
		if best >= 0 {
			// A node in ring r may still be farther than one in ring r+1
			// (diagonal effects), so scan one extra ring before deciding.
			scan(ring + 1)
			return best
		}
	}
	return best
}

// NearestWithin returns the node closest to p among those within dist of
// p, or -1 when none qualifies.
func (l *Layout) NearestWithin(p geo.Point, dist float64) int {
	id := l.Nearest(p)
	if id < 0 || p.Dist(l.Positions[id]) > dist {
		return -1
	}
	return id
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
