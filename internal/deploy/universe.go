package deploy

import (
	"pooldcs/internal/chaos"
	"pooldcs/internal/discovery"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// Universe is one backend with its full substrate on a shared layout:
// its own radio and router (so per-system traffic and routing holes stay
// separable), the deployment's scheduler and, once Detect has run, a
// beacon protocol and the chaos engine it drives.
type Universe struct {
	Sched    *sim.Scheduler
	Net      *network.Network
	Router   *gpsr.Router
	Sys      SUT
	Detector *discovery.Protocol
	Engine   *chaos.Engine
	// Metrics is the registry instrumenting every layer (nil: off).
	Metrics *metrics.Registry
}

// NewUniverse builds the named backend over a fresh radio and router on
// layout. The system draws from src; reg (nil: off) instruments the
// radio, the system, and later the detector and the chaos engine.
func NewUniverse(layout *field.Layout, sched *sim.Scheduler, backend string, dims int, src *rng.Source, reg *metrics.Registry) (*Universe, error) {
	b, err := Lookup(backend)
	if err != nil {
		return nil, err
	}
	u := &Universe{
		Sched:   sched,
		Net:     network.New(layout, network.WithMetrics(reg)),
		Router:  gpsr.New(layout),
		Metrics: reg,
	}
	if u.Sys, err = b.New(Deps{Net: u.Net, Router: u.Router, Sched: sched, Dims: dims, Src: src, Metrics: reg}); err != nil {
		return nil, err
	}
	return u, nil
}

// Detect wires crash detection: a discovery beacon protocol drawing from
// beacons, and a chaos engine over the universe's system that tears a
// crash down only once the victim's neighbours miss enough beacons. It
// is separate from NewUniverse so a caller can hang more instruments on
// the registry first (their families then come first in exports). opts
// extend the engine, e.g. with a recovery hook.
func (u *Universe) Detect(beacons *rng.Source, cfg discovery.Config, opts ...chaos.EngineOption) {
	u.Detector = discovery.New(u.Net, u.Sched, beacons, cfg)
	u.Detector.EnableMetrics(u.Metrics)
	opts = append([]chaos.EngineOption{chaos.WithFailureDetection(u.Detector), chaos.WithMetrics(u.Metrics)}, opts...)
	u.Engine = chaos.NewEngine(u.Sched, u.Net, u.Router, []chaos.System{u.Sys}, opts...)
}

// CrashDetected kills a node the way the chaos engine does after the
// beacon timeout fired: routing first, then the radio, then repair.
func (u *Universe) CrashDetected(id int) error {
	u.CrashSilent(id)
	return u.Sys.FailNode(id)
}

// CrashSilent silences a node's radio and routes without repairing —
// the undetected-corpse window queries must degrade through.
func (u *Universe) CrashSilent(id int) {
	u.Router.Exclude(id)
	u.Net.FailNode(id)
}

// Recover restores a node at every layer.
func (u *Universe) Recover(id int) {
	u.Router.Restore(id)
	u.Net.RecoverNode(id)
	u.Sys.RecoverNode(id)
}
