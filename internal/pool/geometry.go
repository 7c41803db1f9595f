package pool

import (
	"fmt"
	"math"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/rng"
)

// Geometry is the Pool layout every sensor knows in advance: the cell
// grid, the k Pools, and the index node of every Pool cell — the node
// closest to the cell's centre (§2). The §4.1 insert placement and the
// §3.2.3 splitter choice are pure functions of it, so the synchronous
// System and the node actor engine share one implementation of each.
//
// Each owner keeps its own Geometry: failure repair re-elects index
// nodes through SetIndexNode, and two deployments must not see each
// other's re-elections.
type Geometry struct {
	layout *field.Layout
	grid   *Grid
	pools  []Pool
	// holder maps each Pool cell to its index node, which fields all
	// traffic for the cell.
	holder map[CellID]int
}

// NewGeometry lays out dims Pools of side cells over a grid of alpha-metre
// cells covering the layout. Pivot cells are drawn from src (placed
// non-overlapping where possible, as in the paper's random pivot
// placement) unless pivots pins them.
func NewGeometry(layout *field.Layout, dims int, alpha float64, side int, pivots []CellID, src *rng.Source) (*Geometry, error) {
	grid, err := NewGrid(layout.Bounds(), alpha)
	if err != nil {
		return nil, err
	}
	if grid.Cols < side || grid.Rows < side {
		return nil, fmt.Errorf("pool: field of %d×%d cells cannot hold a Pool of side %d",
			grid.Cols, grid.Rows, side)
	}
	if pivots == nil {
		if src == nil {
			return nil, fmt.Errorf("pool: random pivot placement requires a rng source")
		}
		pivots = placePivots(grid, dims, side, src)
	}
	if len(pivots) != dims {
		return nil, fmt.Errorf("pool: %d pivots for %d dimensions", len(pivots), dims)
	}
	g := &Geometry{layout: layout, grid: grid, holder: make(map[CellID]int)}
	for i, pc := range pivots {
		if pc.X < 0 || pc.Y < 0 || pc.X+side > grid.Cols || pc.Y+side > grid.Rows {
			return nil, fmt.Errorf("pool: pivot %v does not fit a Pool of side %d in a %d×%d grid",
				pc, side, grid.Cols, grid.Rows)
		}
		g.pools = append(g.pools, Pool{Dim: i + 1, Pivot: pc, Side: side})
	}
	for _, p := range g.pools {
		for _, c := range p.Cells() {
			if _, ok := g.holder[c]; !ok {
				g.holder[c] = layout.Nearest(grid.Center(c))
			}
		}
	}
	return g, nil
}

// placePivots draws random pivot cells, preferring a placement where the
// Pools do not overlap (as in the paper's Figure 2); after 200 attempts it
// accepts overlap.
func placePivots(grid *Grid, dims, side int, src *rng.Source) []CellID {
	maxX := grid.Cols - side
	maxY := grid.Rows - side
	var pivots []CellID
	for attempt := 0; attempt < 200; attempt++ {
		pivots = make([]CellID, dims)
		ok := true
		for i := range pivots {
			pivots[i] = CellID{X: src.Intn(maxX + 1), Y: src.Intn(maxY + 1)}
			for j := 0; j < i; j++ {
				if overlaps(pivots[i], pivots[j], side) {
					ok = false
				}
			}
		}
		if ok {
			break
		}
	}
	return pivots
}

func overlaps(a, b CellID, side int) bool {
	return a.X < b.X+side && b.X < a.X+side && a.Y < b.Y+side && b.Y < a.Y+side
}

// Grid returns the cell grid.
func (g *Geometry) Grid() *Grid { return g.grid }

// Pools returns the k Pools. The slice is owned by the geometry.
func (g *Geometry) Pools() []Pool { return g.pools }

// IndexNode returns the index node of a Pool cell, or -1 for cells outside
// every Pool.
func (g *Geometry) IndexNode(c CellID) int {
	if h, ok := g.holder[c]; ok {
		return h
	}
	return -1
}

// SetIndexNode hands the index role of Pool cell c to node id. Only the
// geometry's owner calls it, when its failure repair re-elects the cell.
func (g *Geometry) SetIndexNode(c CellID, id int) { g.holder[c] = id }

// EachIndexNode calls fn with every Pool cell and its current index node,
// in unspecified order.
func (g *Geometry) EachIndexNode(fn func(c CellID, index int)) {
	for c, h := range g.holder {
		fn(c, h)
	}
}

// Place applies Algorithm 1 with the §4.1 tie rule to a valid event of
// the geometry's dimensionality sensed at node origin. The event belongs
// in the Pool of its greatest attribute, at the Theorem-3.1 cell of its
// greatest and second-greatest values; with tied maxima the candidate
// cell closest to origin's cell wins, so a single copy is stored. It
// returns the Pool dimension, the cell, and the cell's index node.
func (g *Geometry) Place(origin int, e event.Event) (dim int, cell CellID, index int) {
	originCell := g.grid.CellOf(g.layout.Pos(origin))
	bestDist := math.Inf(1)
	for _, d := range event.GreatestDims(e) {
		c := g.pools[d-1].InsertCell(e.Values[d-1], event.SecondGreatest(e, d))
		if dist := CellDist(c, originCell); dist < bestDist {
			dim, cell, bestDist = d, c, dist
		}
	}
	return dim, cell, g.holder[cell]
}

// Splitter returns Pool p's splitter for a sink: the Pool's index node
// closest to the sink (§3.2.3). Pools are predefined, so the sink
// computes this locally.
func (g *Geometry) Splitter(p Pool, sink int) int { return g.AlternateSplitter(p, sink, -1) }

// AlternateSplitter returns Pool p's index node closest to the sink among
// nodes other than avoid — the retry target when the splitter times out —
// or -1 when the Pool has no other index node.
func (g *Geometry) AlternateSplitter(p Pool, sink, avoid int) int {
	sinkPos := g.layout.Pos(sink)
	best, bestD2 := -1, math.Inf(1)
	for _, c := range p.Cells() {
		h := g.holder[c]
		if h == avoid {
			continue
		}
		if d2 := g.layout.Pos(h).Dist2(sinkPos); d2 < bestD2 {
			best, bestD2 = h, d2
		}
	}
	return best
}
