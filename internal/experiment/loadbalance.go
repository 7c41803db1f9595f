package experiment

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/deploy"
	"pooldcs/internal/dim"
	"pooldcs/internal/field"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// LoadBalanceQuota is the workload-sharing quota the load-balance
// comparison uses for its third row, matching the hotspot ablation.
const LoadBalanceQuota = 20

// LoadBalance reproduces the paper's load-balance comparison (§1's
// fourth design issue, §4.2, §5) through the live metrics subsystem:
// every per-node vector in the table is read back from a metrics
// registry attached to the system under test — the same vectors poolmon
// exports — so the experiment table and the monitoring surface cannot
// drift apart.
//
// Under a skewed event distribution DIM concentrates both storage and
// radio traffic on the few nodes owning the hot value region, while
// Pool's workload sharing redistributes overflow across pool members.
// The table reports the imbalance statistics (Gini coefficient,
// coefficient of variation, heaviest node's share) of the stored-event
// and tx-frame distributions for DIM, plain Pool, and Pool with the
// §4.2 workload-sharing mechanism.
func LoadBalance(cfg Config) (*Result, error) {
	title := fmt.Sprintf("Load balance under skewed events, N=%d (per-node storage and radio distributions)", cfg.PartialSize)
	table := texttable.New(title, "System",
		"Store Gini", "Store CoV", "Store top%",
		"Tx Gini", "Tx CoV", "Tx max")

	src := rng.New(cfg.Seed + 9700)
	layout, router, err := deploy.Substrate(field.DefaultSpec(cfg.PartialSize), src)
	if err != nil {
		return nil, err
	}

	// One universe per system: its own radio and registry so the vectors
	// stay separable, all over the same deployment.
	type universe struct {
		name  string
		reg   *metrics.Registry
		sys   dcs.System
		store string // registry family holding the per-node stored events
	}
	build := func(name, store string, mk func(net *network.Network, reg *metrics.Registry) (dcs.System, error)) (*universe, error) {
		reg := metrics.New()
		net := network.New(layout, network.WithMetrics(reg))
		sys, err := mk(net, reg)
		if err != nil {
			return nil, err
		}
		return &universe{name: name, reg: reg, sys: sys, store: store}, nil
	}

	dimU, err := build("DIM", "dim_stored_events", func(net *network.Network, reg *metrics.Registry) (dcs.System, error) {
		return dim.New(net, router, cfg.Dims, dim.WithMetrics(reg))
	})
	if err != nil {
		return nil, err
	}
	plainU, err := build("Pool", "pool_stored_events", func(net *network.Network, reg *metrics.Registry) (dcs.System, error) {
		return pool.New(net, router, cfg.Dims, src.Fork("pivots-plain"), pool.WithMetrics(reg))
	})
	if err != nil {
		return nil, err
	}
	sharedU, err := build(fmt.Sprintf("Pool+sharing(q=%d)", LoadBalanceQuota), "pool_stored_events",
		func(net *network.Network, reg *metrics.Registry) (dcs.System, error) {
			return pool.New(net, router, cfg.Dims, src.Fork("pivots-shared"),
				pool.WithMetrics(reg), pool.WithWorkloadSharing(LoadBalanceQuota))
		})
	if err != nil {
		return nil, err
	}
	universes := []*universe{dimU, plainU, sharedU}

	// The skewed workload of the hotspot ablation: events cluster around
	// one value region, queries follow the paper's exponential range-size
	// distribution. The population is drawn once (keeping the fork order
	// of the sequential engine) and then replayed into each universe;
	// every universe sees the identical call sequence, so its counters
	// cannot depend on whether the replays are interleaved or fanned out
	// over workers through the shared, planarized read-only router.
	gen := workload.NewHotspotEvents(src.Fork("events"), hotspotCenter(cfg.Dims), 0.02)
	events := GenerateEvents(layout, cfg.EventsPerNode, gen)
	queries := exact(workload.NewQueries(src.Fork("queries"), cfg.Dims), cfg.Queries, workload.ExponentialSizes)
	placed := place(src.Fork("sinks"), cfg.PartialSize, queries)
	router.PlanarNeighbors(0)
	if _, err := forEach(cfg.parallel(), len(universes), func(ui int) (struct{}, error) {
		u := universes[ui]
		for _, pe := range events {
			if err := u.sys.Insert(pe.Origin, pe.Event); err != nil {
				return struct{}{}, fmt.Errorf("loadbalance: %s insert: %w", u.name, err)
			}
		}
		for qi, pq := range placed {
			if _, err := u.sys.Query(pq.Sink, pq.Query); err != nil {
				return struct{}{}, fmt.Errorf("loadbalance: %s query %d: %w", u.name, qi, err)
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	for _, u := range universes {
		store := metrics.Analyze(u.reg.NodeValues(u.store))
		tx := metrics.Analyze(u.reg.NodeValues("net_tx_frames_total"))
		table.AddRow(u.name,
			texttable.Float(store.Gini, 3),
			texttable.Float(store.CoV, 2),
			texttable.Float(store.TopShare*100, 1),
			texttable.Float(tx.Gini, 3),
			texttable.Float(tx.CoV, 2),
			texttable.Int(int(tx.Max)))
	}
	return &Result{ID: "ablation-loadbalance", Title: title, Table: table}, nil
}
