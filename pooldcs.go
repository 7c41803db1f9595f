// Package pooldcs reproduces "Supporting Multi-Dimensional Range Query
// for Sensor Networks" (Chung, Su & Lee, ICDCS 2007): the Pool
// data-centric storage scheme, its DIM and GHT baselines, and the wireless
// sensor network simulator they run on.
//
// This root package is the high-level facade: it wires a deployment, the
// GPSR routing substrate, the radio layer, and a Pool storage system into
// one Simulation with a small API. The building blocks live under
// internal/ — internal/pool implements the paper's contribution,
// internal/dim and internal/ght the baselines, internal/gpsr the routing,
// and internal/experiment regenerates every evaluation figure.
//
// A minimal session:
//
//	sim, err := pooldcs.NewSimulation(pooldcs.Config{Nodes: 300, Seed: 1})
//	if err != nil { ... }
//	sim.Insert(12, 0.4, 0.3, 0.1)                       // sensed at node 12
//	events, err := sim.Query(0, pooldcs.Span(0.2, 0.5), // issued at node 0
//	    pooldcs.Span(0, 1), pooldcs.Wildcard())
//	fmt.Println(len(events), sim.Messages())
package pooldcs

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
)

// Event is a multi-dimensional sensor reading with normalized attribute
// values in [0, 1).
type Event = event.Event

// Query is a (possibly partial) multi-dimensional range query.
type Query = event.Query

// Range is one attribute's query range.
type Range = event.Range

// Span returns the closed query range [lo, hi].
func Span(lo, hi float64) Range { return event.Span(lo, hi) }

// Point returns the degenerate range [v, v].
func Point(v float64) Range { return event.PointRange(v) }

// Wildcard returns a "don't care" range for partial-match queries.
func Wildcard() Range { return event.Unspecified() }

// AggOp selects an aggregate function for Simulation.Aggregate.
type AggOp = pool.AggOp

// Aggregate operators.
const (
	Count = pool.AggCount
	Sum   = pool.AggSum
	Avg   = pool.AggAvg
	Min   = pool.AggMin
	Max   = pool.AggMax
)

// Config describes a simulated deployment.
type Config struct {
	// Nodes is the number of sensors (default 300).
	Nodes int
	// Dims is the event dimensionality (default 3).
	Dims int
	// Seed drives all randomness; equal seeds reproduce equal networks.
	Seed int64
	// RadioRange is the radio range in metres (default 40, the paper's
	// §5.1 value).
	RadioRange float64
	// AvgNeighbors sets the deployment density (default 20).
	AvgNeighbors float64
	// CellSize is the Pool grid cell side α in metres (default 5).
	CellSize float64
	// PoolSide is the Pool side length l in cells (default 10).
	PoolSide int
	// SharingQuota, when positive, enables §4.2 workload sharing with the
	// given per-node storage quota.
	SharingQuota int
	// Replicate enables cell-level mirroring so data survives single-node
	// failures.
	Replicate bool
	// MTU, when positive, fragments payloads into MTU-byte radio frames.
	MTU int
	// LossRate, when positive, drops each frame with this probability;
	// unicasts retransmit per hop (ARQ).
	LossRate float64
	// Clustered places nodes in Gaussian clusters instead of uniformly.
	Clustered bool
	// Clusters and ClusterSpread tune clustered placement (defaults 5 and
	// 0.12 of the field side).
	Clusters      int
	ClusterSpread float64
}

func (c *Config) applyDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 300
	}
	if c.Dims == 0 {
		c.Dims = 3
	}
	if c.RadioRange == 0 {
		c.RadioRange = 40
	}
	if c.AvgNeighbors == 0 {
		c.AvgNeighbors = 20
	}
	if c.CellSize == 0 {
		c.CellSize = pool.DefaultAlpha
	}
	if c.PoolSide == 0 {
		c.PoolSide = pool.DefaultSide
	}
	if c.Clusters == 0 {
		c.Clusters = 5
	}
	if c.ClusterSpread == 0 {
		c.ClusterSpread = 0.12
	}
}

// Simulation is a deployed sensor network running the Pool DCS scheme.
type Simulation struct {
	cfg    Config
	layout *field.Layout
	router *gpsr.Router
	net    *network.Network
	pool   *pool.System
	seq    uint64
}

// NewSimulation deploys a connected network per cfg and stands up Pool
// over it.
func NewSimulation(cfg Config) (*Simulation, error) {
	cfg.applyDefaults()
	src := rng.New(cfg.Seed)
	spec := field.Spec{
		Nodes:        cfg.Nodes,
		RadioRange:   cfg.RadioRange,
		AvgNeighbors: cfg.AvgNeighbors,
	}
	if cfg.Clustered {
		spec.Clusters, spec.ClusterSpread = cfg.Clusters, cfg.ClusterSpread
	}
	layout, router, err := deploy.Substrate(spec, src)
	if err != nil {
		return nil, err
	}
	var netOpts []network.Option
	if cfg.MTU > 0 {
		netOpts = append(netOpts, network.WithMTU(cfg.MTU))
	}
	if cfg.LossRate > 0 {
		if cfg.LossRate >= 1 {
			return nil, fmt.Errorf("pooldcs: loss rate %v must be below 1", cfg.LossRate)
		}
		netOpts = append(netOpts, network.WithLossRate(cfg.LossRate, src.Fork("loss")))
	}
	net := network.New(layout, netOpts...)
	opts := []pool.Option{
		pool.WithCellSize(cfg.CellSize),
		pool.WithPoolSide(cfg.PoolSide),
	}
	if cfg.SharingQuota > 0 {
		opts = append(opts, pool.WithWorkloadSharing(cfg.SharingQuota))
	}
	if cfg.Replicate {
		opts = append(opts, pool.WithReplication())
	}
	p, err := pool.New(net, router, cfg.Dims, src.Fork("pivots"), opts...)
	if err != nil {
		return nil, err
	}
	return &Simulation{cfg: cfg, layout: layout, router: router, net: net, pool: p}, nil
}

// Nodes returns the number of deployed sensors.
func (s *Simulation) Nodes() int { return s.layout.N() }

// FieldSide returns the deployment field's side length in metres.
func (s *Simulation) FieldSide() float64 { return s.layout.Side }

// Dims returns the event dimensionality.
func (s *Simulation) Dims() int { return s.cfg.Dims }

// Insert stores a reading sensed at the given node. values must have
// exactly Dims entries, each in [0, 1). It returns the stored event.
func (s *Simulation) Insert(origin int, values ...float64) (Event, error) {
	if origin < 0 || origin >= s.layout.N() {
		return Event{}, fmt.Errorf("pooldcs: node %d out of range 0..%d", origin, s.layout.N()-1)
	}
	s.seq++
	e := Event{Values: values, Seq: s.seq}
	if err := s.pool.Insert(origin, e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// InsertEvent stores a caller-constructed event (for callers managing
// their own sequence numbers).
func (s *Simulation) InsertEvent(origin int, e Event) error {
	if origin < 0 || origin >= s.layout.N() {
		return fmt.Errorf("pooldcs: node %d out of range 0..%d", origin, s.layout.N()-1)
	}
	return s.pool.Insert(origin, e)
}

// Query answers a multi-dimensional range query issued at the sink node.
// Use Wildcard() ranges for partial-match queries.
func (s *Simulation) Query(sink int, ranges ...Range) ([]Event, error) {
	if sink < 0 || sink >= s.layout.N() {
		return nil, fmt.Errorf("pooldcs: node %d out of range 0..%d", sink, s.layout.N()-1)
	}
	return s.pool.Query(sink, event.NewQuery(ranges...))
}

// Aggregate evaluates op over attribute dim (1-based) of the events
// matching the query. dim is ignored for Count.
func (s *Simulation) Aggregate(sink int, op AggOp, dim int, ranges ...Range) (float64, error) {
	if sink < 0 || sink >= s.layout.N() {
		return 0, fmt.Errorf("pooldcs: node %d out of range 0..%d", sink, s.layout.N()-1)
	}
	return s.pool.Aggregate(sink, event.NewQuery(ranges...), op, dim)
}

// Delete removes every stored event matching the ranges, issued from the
// sink node, and returns how many were removed.
func (s *Simulation) Delete(sink int, ranges ...Range) (int, error) {
	if sink < 0 || sink >= s.layout.N() {
		return 0, fmt.Errorf("pooldcs: node %d out of range 0..%d", sink, s.layout.N()-1)
	}
	return s.pool.Delete(sink, event.NewQuery(ranges...))
}

// Nearest returns the k stored events closest to the query point in value
// space, found with an expanding-ring search over the Pool index (the
// paper's §6 nearest-neighbour extension).
func (s *Simulation) Nearest(sink int, point []float64, k int) ([]Event, error) {
	if sink < 0 || sink >= s.layout.N() {
		return nil, fmt.Errorf("pooldcs: node %d out of range 0..%d", sink, s.layout.N()-1)
	}
	return s.pool.Nearest(sink, point, k)
}

// Subscription is a standing continuous query; see Subscribe.
type Subscription = pool.Subscription

// Notification is one pushed match of a continuous query.
type Notification = pool.Notification

// Subscribe registers a continuous query: every future insert matching
// the ranges is pushed to the sink (the paper's §6 continuous-monitoring
// extension). Collect pushes with Notifications.
func (s *Simulation) Subscribe(sink int, ranges ...Range) (*Subscription, error) {
	if sink < 0 || sink >= s.layout.N() {
		return nil, fmt.Errorf("pooldcs: node %d out of range 0..%d", sink, s.layout.N()-1)
	}
	return s.pool.Subscribe(sink, event.NewQuery(ranges...))
}

// Unsubscribe cancels a continuous query.
func (s *Simulation) Unsubscribe(sub *Subscription) error {
	return s.pool.Unsubscribe(sub)
}

// Notifications drains the pushed matches accumulated so far.
func (s *Simulation) Notifications() []Notification {
	return s.pool.Notifications()
}

// Messages returns the total number of radio transmissions so far.
func (s *Simulation) Messages() uint64 { return s.net.Snapshot().Total() }

// Cost summarizes the traffic spent since the simulation started.
func (s *Simulation) Cost() dcs.CostReport { return dcs.Report(s.net.Snapshot()) }

// ResetCounters zeroes the traffic counters (stored events remain).
func (s *Simulation) ResetCounters() { s.net.Reset() }

// StorageLoad returns the number of events stored at each node.
func (s *Simulation) StorageLoad() []int { return s.pool.StorageLoad() }
