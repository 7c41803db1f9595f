// Package experiment contains one runner per figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out. Every runner
// builds fresh deployments, replays identical event and query populations
// against Pool and DIM (each over its own traffic-counting network), and
// reports the paper's metric: the average number of messages exchanged per
// query.
package experiment

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/deploy"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Config holds the shared experiment parameters (§5.1 defaults).
type Config struct {
	// Seed drives every random choice; identical configs reproduce
	// identical tables.
	Seed int64
	// Dims is the event dimensionality (paper: 3).
	Dims int
	// EventsPerNode is the stored-event load (paper: 3).
	EventsPerNode int
	// Queries is the number of queries averaged per data point.
	Queries int
	// NetworkSizes are the deployment sizes swept by Figure 6.
	NetworkSizes []int
	// PartialSize is the fixed deployment size of Figure 7 (paper: 900).
	PartialSize int
	// Parallel bounds the number of worker goroutines used to fan
	// independent trials of a table across cores: 1 forces a sequential
	// run, 0 (the default) uses GOMAXPROCS. Every trial seeds its own
	// random source, so the tables are byte-identical at any setting.
	Parallel int
	// RepairPeriod is the background anti-entropy round interval of the
	// churn experiment's replicated universes (0 selects the
	// antientropy default of 5s).
	RepairPeriod time.Duration
	// Backend selects the storage implementation for the experiments
	// that support both: "" or "pool" runs the synchronous specification
	// (global-knowledge repair), "node" runs the event-driven actor
	// engine, whose fault repair plays out as real multi-hop exchanges.
	Backend string
	// Repair enables mirror replication — and, on the node backend,
	// message-driven mirror restoration — for the backend-aware
	// experiments.
	Repair bool
	// TraceRing is the capacity of the flight-recorder event ring the
	// attribution-instrumented experiments (churn, saturation) attach to
	// their actor universe. Zero selects DefaultTraceRing. The ring
	// bounds trace memory; eviction degrades the attribution columns
	// gracefully rather than growing the heap with the horizon.
	TraceRing int
}

// DefaultTraceRing bounds the per-universe flight recorder: large
// enough to hold a full churn horizon's probe spans at the default
// deployment sizes, small enough to stay a fixed cost.
const DefaultTraceRing = 1 << 18

// traceRing resolves the flight-recorder capacity.
func (c Config) traceRing() int {
	if c.TraceRing > 0 {
		return c.TraceRing
	}
	return DefaultTraceRing
}

// Default returns the paper's §5.1 parameters.
func Default() Config {
	return Config{
		Seed:          42,
		Dims:          3,
		EventsPerNode: workload.DefaultEventsPerNode,
		Queries:       100,
		NetworkSizes:  []int{300, 600, 900, 1200},
		PartialSize:   900,
	}
}

// Quick returns a configuration with fewer queries per point for tests
// and smoke runs. Network sizes stay at the paper's values: the claims
// about DIM's sensitivity to network size only hold at realistic scales.
func Quick() Config {
	cfg := Default()
	cfg.Queries = 30
	cfg.NetworkSizes = []int{300, 600, 900}
	return cfg
}

// Result is one regenerated figure or table.
type Result struct {
	// ID matches the experiment index in DESIGN.md (e.g. "fig6a").
	ID string
	// Title describes the experiment.
	Title string
	// Table holds the series data.
	Table *texttable.Table
}

// String renders the result for the CLI.
func (r *Result) String() string {
	return r.Table.String()
}

// Env is one instantiated deployment carrying a Pool system and a DIM
// system over separate traffic counters.
type Env struct {
	Layout  *field.Layout
	Router  *gpsr.Router
	PoolNet *network.Network
	DIMNet  *network.Network
	Pool    *pool.System
	DIM     *dim.System

	// Workers, when > 1, lets QueryCosts run its pool pass and dim pass
	// concurrently. The two passes share only the router, which is
	// planarized up front and then read-only.
	Workers int

	// src is the trial's source and events what load stored: runners
	// draw their "queries"/"sinks" forks from src after the load, and
	// replay events into any extra system they compare.
	src    *rng.Source
	events []PlacedEvent

	// seqBuf is the reusable scratch map of sameEvents.
	seqBuf map[uint64]int
}

// NewEnv builds a connected deployment of n nodes and both systems.
func NewEnv(n, dims int, src *rng.Source, poolOpts ...pool.Option) (*Env, error) {
	return newEnv(field.DefaultSpec(n), dims, src, nil, nil, poolOpts...)
}

// newEnv builds both systems over the deployment spec describes, with a
// metrics registry attached to each system and its network (nil
// registries attach nothing). Experiments that report per-node
// aggregates read them back through the same registry families the
// monitoring surface exports, so the tables and the exports cannot drift
// apart.
func newEnv(spec field.Spec, dims int, src *rng.Source, poolReg, dimReg *metrics.Registry, poolOpts ...pool.Option) (*Env, error) {
	layout, router, err := deploy.Substrate(spec, src)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	poolNet := network.New(layout, network.WithMetrics(poolReg))
	dimNet := network.New(layout, network.WithMetrics(dimReg))
	popts := append([]pool.Option{pool.WithMetrics(poolReg)}, poolOpts...)
	p, err := pool.New(poolNet, router, dims, src.Fork("pivots"), popts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	d, err := dim.New(dimNet, router, dims, dim.WithMetrics(dimReg))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return &Env{Layout: layout, Router: router, PoolNet: poolNet, DIMNet: dimNet, Pool: p, DIM: d}, nil
}

// loadedEnv is the trial recipe most runners share: seed a source, build
// both systems over spec, and load perNode uniform events per sensor
// into both.
func loadedEnv(seed int64, spec field.Spec, dims, perNode int, poolOpts ...pool.Option) (*Env, error) {
	src := rng.New(seed)
	env, err := newEnv(spec, dims, src, nil, nil, poolOpts...)
	if err != nil {
		return nil, err
	}
	if err := env.load(src, dims, perNode); err != nil {
		return nil, err
	}
	return env, nil
}

// load draws perNode uniform events per sensor from src's "events" fork,
// inserts them into both systems, and keeps src and the events on e.
func (e *Env) load(src *rng.Source, dims, perNode int) error {
	e.src = src
	e.events = GenerateEvents(e.Layout, perNode, workload.NewUniformEvents(src.Fork("events"), dims))
	return e.InsertAll(e.events)
}

// insertCost is the insert messages per stored event that net carried
// for the events load stored.
func (e *Env) insertCost(net *network.Network) float64 {
	return float64(net.Messages(network.KindInsert)) / float64(len(e.events))
}

// PlacedEvent is an event with its detecting sensor.
type PlacedEvent struct {
	Origin int
	Event  event.Event
}

// GenerateEvents draws perNode events per sensor from gen, each detected
// at its own sensor (§5.1: every sensor generates three events).
func GenerateEvents(layout *field.Layout, perNode int, gen *workload.Events) []PlacedEvent {
	out := make([]PlacedEvent, 0, layout.N()*perNode)
	for node := 0; node < layout.N(); node++ {
		for i := 0; i < perNode; i++ {
			out = append(out, PlacedEvent{Origin: node, Event: gen.Next()})
		}
	}
	return out
}

// InsertAll replays the events into both systems.
func (e *Env) InsertAll(events []PlacedEvent) error {
	for _, pe := range events {
		if err := e.Pool.Insert(pe.Origin, pe.Event); err != nil {
			return fmt.Errorf("pool insert: %w", err)
		}
		if err := e.DIM.Insert(pe.Origin, pe.Event); err != nil {
			return fmt.Errorf("dim insert: %w", err)
		}
	}
	return nil
}

// PlacedQuery is a query with the sink issuing it.
type PlacedQuery struct {
	Sink  int
	Query event.Query
}

// exact draws count exact-match queries with dist range sizes from gen.
func exact(gen *workload.Queries, count int, dist workload.RangeSizeDist) []event.Query {
	out := make([]event.Query, count)
	for i := range out {
		out[i] = gen.ExactMatch(dist)
	}
	return out
}

// place issues each query from a sink drawn uniformly among n nodes by
// sinks, in query order.
func place(sinks *rng.Source, n int, queries []event.Query) []PlacedQuery {
	out := make([]PlacedQuery, len(queries))
	for i, q := range queries {
		out[i] = PlacedQuery{Sink: sinks.Intn(n), Query: q}
	}
	return out
}

// queryMsgs is the paper's metric read off one radio: its running count
// of query forwarding plus reply messages. Runners take its difference
// across the queries they measure.
func queryMsgs(net *network.Network) uint64 {
	return net.Messages(network.KindQuery) + net.Messages(network.KindReply)
}

// queryPass sends every query through one system and returns the
// queryMsgs the pass cost, storing each result set into res (nil: drop
// the results). Only this system's queries move this network's counters,
// so the whole-pass delta equals the sum of the per-query deltas.
func queryPass(name string, net *network.Network, sys dcs.System, queries []PlacedQuery, res [][]event.Event) (uint64, error) {
	before := queryMsgs(net)
	for qi, pq := range queries {
		r, err := sys.Query(pq.Sink, pq.Query)
		if err != nil {
			return 0, fmt.Errorf("%s query %d: %w", name, qi, err)
		}
		if res != nil {
			res[qi] = r
		}
	}
	return queryMsgs(net) - before, nil
}

// QueryCosts runs the same queries through both systems and returns the
// average query-processing cost per query (query forwarding plus reply
// messages, the paper's metric). Both systems must return identical result
// sets; a mismatch is reported as an error since it indicates a
// correctness bug.
//
// With Workers > 1 the pool pass and the dim pass run concurrently: each
// pass touches only its own system, network, and result slice, and the
// shared router is planarized up front so routing stays read-only. The
// traffic totals and the per-query result comparison are identical either
// way.
func (e *Env) QueryCosts(queries []PlacedQuery) (poolAvg, dimAvg float64, err error) {
	poolRes := make([][]event.Event, len(queries))
	dimRes := make([][]event.Event, len(queries))
	if e.Workers > 1 && e.Layout.N() > 0 {
		e.Router.PlanarNeighbors(0) // planarize before sharing
	}
	passes := []struct {
		name string
		net  *network.Network
		sys  dcs.System
		res  [][]event.Event
	}{{"pool", e.PoolNet, e.Pool, poolRes}, {"dim", e.DIMNet, e.DIM, dimRes}}
	totals, err := forEach(e.Workers, len(passes), func(i int) (uint64, error) {
		p := passes[i]
		return queryPass(p.name, p.net, p.sys, queries, p.res)
	})
	if err != nil {
		return 0, 0, err
	}
	if e.seqBuf == nil {
		e.seqBuf = make(map[uint64]int)
	}
	for qi := range queries {
		if !sameEvents(e.seqBuf, poolRes[qi], dimRes[qi]) {
			return 0, 0, fmt.Errorf("query %d (%v): pool returned %d events, dim %d — result sets differ",
				qi, queries[qi].Query, len(poolRes[qi]), len(dimRes[qi]))
		}
	}
	n := float64(len(queries))
	return float64(totals[0]) / n, float64(totals[1]) / n, nil
}

// sameEvents compares result sets by sequence number, using a
// caller-owned scratch map (cleared on entry) so per-query comparisons
// in hot loops allocate nothing.
func sameEvents(seen map[uint64]int, a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	clear(seen)
	for _, e := range a {
		seen[e.Seq]++
	}
	for _, e := range b {
		seen[e.Seq]--
		if seen[e.Seq] < 0 {
			return false
		}
	}
	return true
}
