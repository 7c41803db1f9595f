package load

import (
	"fmt"

	"pooldcs/internal/dcs"
	"pooldcs/internal/deploy"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/ght"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// Backends lists the deployable backend names in report order.
func Backends() []string { return []string{"pool", "dim", "ght", "pool-actor"} }

// Deployment is one instantiated backend ready for a load run.
type Deployment struct {
	// Target is what the engine drives.
	Target Target
	// Nodes is the deployment size.
	Nodes int
	// Sys is the synchronous system underneath (nil for pool-actor).
	Sys dcs.System
}

// Deploy builds a connected deployment of n sensors running the named
// deploy backend ("pool", "dim", "ght", or "pool-actor", the actor
// engine) with perNode uniform events preloaded, mirroring the §5.1
// stored-event load so queries hit a populated store. The preload
// happens before the load clock starts and is not charged to any
// station.
func Deploy(backend string, n, dims int, perNode int, src *rng.Source, sched *sim.Scheduler, cost CostModel) (*Deployment, error) {
	b, err := deploy.Lookup(backend)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	layout, router, err := deploy.Substrate(field.DefaultSpec(n), src)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	net := network.New(layout)
	gen := workload.NewUniformEvents(src.Fork("preload"), dims)
	d := deploy.Deps{Net: net, Router: router, Sched: sched, Dims: dims}
	if b.Seeded {
		d.Src = src.Fork("pivots")
	}
	sut, err := b.New(d)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	dep := &Deployment{Nodes: n}
	insert := sut.Insert
	var eng *node.Engine
	switch s := sut.(type) {
	case *node.Sync:
		eng = s.Engine()
		insert = func(origin int, e event.Event) error { return eng.Insert(origin, e, nil) }
	case *pool.System:
		dep.Target, dep.Sys = NewStationTarget(&PoolBackend{Sys: s}, s, net, sched, cost), s
	case *dim.System:
		dep.Target, dep.Sys = NewStationTarget(&DIMBackend{Sys: s}, s, net, sched, cost), s
	case *ght.System:
		dep.Target, dep.Sys = NewStationTarget(&GHTBackend{Sys: s, Net: net}, s, net, sched, cost), s
	}
	for i := 0; i < n; i++ {
		for j := 0; j < perNode; j++ {
			if err := insert(i, gen.Next()); err != nil {
				return nil, fmt.Errorf("load: preload: %w", err)
			}
		}
	}
	if eng != nil {
		// Drain the preload inserts before the load clock starts; the
		// engine's runs are start-relative, so the elapsed preload time
		// does not shift the offered horizon.
		sched.Run()
		dep.Target = NewActorTarget(eng, cost.PerMessage)
	}
	return dep, nil
}
