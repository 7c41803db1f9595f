// Package deploy is the one way to build a deployment: the paper's §5.1
// sensor field with its GPSR router, the registry of storage backends
// that run over it, and the universe that wires a backend to beacon
// failure detection and the chaos engine.
//
// Every caller keeps forking its own random streams: the builders here
// fork only the "layout" stream (one draw from the caller's source), and
// callers pass every other stream in already forked. rng.Fork consumes a
// parent draw, so fork labels and fork order stay the caller's decision,
// and with them every seeded table.
package deploy

import (
	"fmt"
	"strings"

	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/ght"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/trace"
)

// Layout draws the deployment spec describes from src.Fork("layout").
func Layout(spec field.Spec, src *rng.Source) (*field.Layout, error) {
	layout, err := field.Generate(spec, src.Fork("layout"))
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return layout, nil
}

// Substrate draws the layout as Layout does and builds its GPSR router.
func Substrate(spec field.Spec, src *rng.Source) (*field.Layout, *gpsr.Router, error) {
	layout, err := Layout(spec, src)
	if err != nil {
		return nil, nil, err
	}
	return layout, gpsr.New(layout), nil
}

// SUT is the surface every storage backend conforms to: insert,
// query-with-completeness, the fault hooks the chaos engine drives, and
// the storage report harnesses use to aim crashes at loaded nodes.
type SUT interface {
	Name() string
	Insert(origin int, e event.Event) error
	QueryWithReport(sink int, q event.Query) ([]event.Event, dcs.Completeness, error)
	FailNode(id int) error
	RecoverNode(id int)
	Failed(id int) bool
	StorageLoad() []int
}

// Deps is what a backend is built over.
type Deps struct {
	Net    *network.Network
	Router *gpsr.Router
	// Sched is the deployment's event kernel: the synchronous backends
	// ignore it, the actor engine runs its exchanges on it.
	Sched *sim.Scheduler
	Dims  int
	// Src is the backend's own random stream (Pool pivots); backends
	// that are not Seeded never read it.
	Src *rng.Source
	// Metrics and Tracer instrument the backend; nil leaves it dark.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// Backend names one storage flavour and builds it.
type Backend struct {
	Name string
	// Seeded reports whether New draws from Deps.Src. DIM and GHT are
	// fixed by the layout, so callers that never forked a stream for
	// them need not fork one now.
	Seeded bool
	New    func(Deps) (SUT, error)
}

// Backends returns every storage flavour. "node" and "node+repair" are
// the actor-engine implementations of "pool" and "pool+repl": the same
// protocol executed as real message exchanges (including message-driven
// fault repair), drained to completion behind the synchronous SUT
// surface by node.Sync, whose Engine method reaches the engine itself.
func Backends() []Backend {
	return []Backend{
		{"pool", true, func(d Deps) (SUT, error) {
			return pool.New(d.Net, d.Router, d.Dims, d.Src, pool.WithMetrics(d.Metrics), pool.WithTracer(d.Tracer))
		}},
		{"pool+repl", true, func(d Deps) (SUT, error) {
			return pool.New(d.Net, d.Router, d.Dims, d.Src, pool.WithReplication(),
				pool.WithMetrics(d.Metrics), pool.WithTracer(d.Tracer))
		}},
		{"dim", false, func(d Deps) (SUT, error) {
			return dim.New(d.Net, d.Router, d.Dims, dim.WithMetrics(d.Metrics), dim.WithTracer(d.Tracer))
		}},
		{"ght", false, func(d Deps) (SUT, error) {
			return ght.New(d.Net, d.Router, ght.WithMetrics(d.Metrics)), nil
		}},
		{"ght+sr", false, func(d Deps) (SUT, error) {
			return ght.New(d.Net, d.Router, ght.WithStructuredReplication(1), ght.WithMetrics(d.Metrics)), nil
		}},
		{"node", true, func(d Deps) (SUT, error) {
			return newActor("node", d)
		}},
		{"node+repair", true, func(d Deps) (SUT, error) {
			return newActor("node+repair", d, node.WithReplication())
		}},
	}
}

// newActor builds an actor engine behind the synchronous surface.
func newActor(name string, d Deps, opts ...node.Option) (SUT, error) {
	eng, err := node.NewEngine(d.Net, d.Router, d.Sched, d.Dims, d.Src, nil,
		append(opts, node.WithTracer(d.Tracer))...)
	if err != nil {
		return nil, err
	}
	eng.EnableMetrics(d.Metrics)
	return node.NewSync(name, eng, d.Sched), nil
}

// Lookup returns the backend registered under name. "pool-actor" — the
// load harness's, its goldens' and the benchmark's name for the actor
// engine — is an alias of "node".
func Lookup(name string) (Backend, error) {
	if name == "pool-actor" {
		name = "node"
	}
	var names []string
	for _, b := range Backends() {
		if b.Name == name {
			return b, nil
		}
		names = append(names, b.Name)
	}
	return Backend{}, fmt.Errorf("deploy: unknown backend %q (choose from %s)", name, strings.Join(names, ", "))
}
