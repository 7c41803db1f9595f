package main

import (
	"fmt"
	"time"

	"pooldcs/internal/antientropy"
	"pooldcs/internal/chaos"
	"pooldcs/internal/dcs"
	"pooldcs/internal/dim"
	"pooldcs/internal/discovery"
	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/ght"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
	"pooldcs/internal/trace"
	"pooldcs/internal/workload"
)

// churnParams sizes the churn workload: one layout and one scheduler
// carrying four universes under one fault plan.
type churnParams struct {
	N           int           `json:"nodes"`
	Dims        int           `json:"dims"`
	PerNode     int           `json:"events_per_node"`
	Horizon     time.Duration `json:"horizon_ns"`
	Beacon      time.Duration `json:"beacon_ns"`
	CrashFrac   float64       `json:"crash_frac"`
	RecoverFrac float64       `json:"recover_frac"`
	Bursts      int           `json:"loss_bursts"`
	BurstRate   float64       `json:"burst_loss_rate"`
	Queries     int           `json:"queries"`
	Service     time.Duration `json:"node_service_ns"`
}

func defaultChurnParams() churnParams {
	return churnParams{
		N:           900,
		Dims:        3,
		PerNode:     3,
		Horizon:     120 * time.Second,
		Beacon:      time.Second,
		CrashFrac:   0.20,
		RecoverFrac: 0.25,
		Bursts:      4,
		BurstRate:   0.3,
		Queries:     600,
		Service:     2 * time.Millisecond,
	}
}

// churnUniverse is one system under churn with its own radio, router,
// beacons and fault engine.
type churnUniverse struct {
	name   string
	net    *network.Network
	router *gpsr.Router
	disc   *discovery.Protocol
	engine *chaos.Engine
	reg    *metrics.Registry
	// sys answers synchronously; nil for the actor engine.
	sys interface {
		QueryWithReport(sink int, q event.Query) ([]event.Event, dcs.Completeness, error)
	}
	querySpan string
	answers   []churnAnswer
}

// churnAnswer is one answer, kept for the oracle check after the run.
type churnAnswer struct {
	q        event.Query
	at       time.Duration
	complete bool
	keys     []uint64
}

func (u *churnUniverse) record(q event.Query, at time.Duration, got []event.Event, comp dcs.Completeness) {
	u.answers = append(u.answers, churnAnswer{q: q, at: at, complete: comp.Complete(), keys: keysOf(got)})
}

// liveSink steps from sink to the next node the universe holds up: a user
// issues from a live gateway.
func (u *churnUniverse) liveSink(sink int) int {
	n := u.net.Layout().N()
	for u.engine.Down(sink) {
		sink = (sink + 1) % n
	}
	return sink
}

type churnQuery struct {
	at    time.Duration
	sink  int
	q     event.Query
	point event.Query
}

func runChurn(p churnParams, seed int64, tr *tracer) (*passResult, error) {
	r := newPassResult()
	setupStart := time.Now()
	dsrc, src := rng.New(deploySeed), rng.New(seed)
	tr.begin("field.Generate")
	layout, err := field.Generate(field.DefaultSpec(p.N), dsrc.Fork("layout"))
	tr.end()
	if err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()

	build := func(name string, mk func(net *network.Network, router *gpsr.Router) (chaos.System, error), opts ...chaos.EngineOption) (*churnUniverse, error) {
		u := &churnUniverse{name: name, reg: metrics.New()}
		tr.begin("network.New")
		u.net = network.New(layout)
		tr.end()
		tr.begin("gpsr.New")
		u.router = gpsr.New(layout)
		tr.end()
		sys, err := mk(u.net, u.router)
		if err != nil {
			return nil, err
		}
		tr.begin("discovery.New")
		u.disc = discovery.New(u.net, sched, src.Fork("beacons-"+name), discovery.Config{Interval: p.Beacon})
		u.disc.EnableMetrics(u.reg)
		tr.end()
		tr.begin("chaos.NewEngine")
		u.engine = chaos.NewEngine(sched, u.net, u.router, []chaos.System{sys},
			append([]chaos.EngineOption{chaos.WithFailureDetection(u.disc)}, opts...)...)
		tr.end()
		return u, nil
	}

	// A rejoining node kicks an immediate anti-entropy round.
	var rec *antientropy.Reconciler
	var poolSys *pool.System
	poolU, err := build("pool", func(net *network.Network, router *gpsr.Router) (s chaos.System, err error) {
		tr.begin("pool.New")
		defer tr.end()
		poolSys, err = pool.New(net, router, p.Dims, dsrc.Fork("pivots-pool"), pool.WithReplication())
		return poolSys, err
	}, chaos.WithRecoveryHook(func(int) { rec.Kick() }))
	if err != nil {
		return nil, err
	}
	poolU.sys, poolU.querySpan = poolSys, "pool.QueryWithReport"
	var dimSys *dim.System
	dimU, err := build("dim", func(net *network.Network, router *gpsr.Router) (s chaos.System, err error) {
		tr.begin("dim.New")
		defer tr.end()
		dimSys, err = dim.New(net, router, p.Dims)
		return dimSys, err
	})
	if err != nil {
		return nil, err
	}
	dimU.sys, dimU.querySpan = dimSys, "dim.QueryWithReport"
	var ghtSys *ght.System
	ghtU, err := build("ght", func(net *network.Network, router *gpsr.Router) (chaos.System, error) {
		tr.begin("ght.New")
		defer tr.end()
		ghtSys = ght.New(net, router, ght.WithStructuredReplication(1))
		return ghtSys, nil
	})
	if err != nil {
		return nil, err
	}
	ghtU.sys, ghtU.querySpan = ghtSys, "ght.QueryWithReport"
	var eng *node.Engine
	nodeU, err := build("node", func(net *network.Network, router *gpsr.Router) (s chaos.System, err error) {
		tr.begin("node.NewEngine")
		defer tr.end()
		eng, err = node.NewEngine(net, router, sched, p.Dims, dsrc.Fork("pivots-node"), nil, node.WithReplication())
		if err != nil {
			return nil, err
		}
		eng.EnableService(p.Service)
		return eng, nil
	})
	if err != nil {
		return nil, err
	}
	tr.begin("trace.NewRing")
	flight := trace.NewRing(sched, experiment.DefaultTraceRing)
	tr.end()
	eng.SetTracer(flight)
	universes := []*churnUniverse{poolU, dimU, ghtU, nodeU}

	tr.begin("antientropy.New")
	rec = antientropy.New(sched, poolU.net, poolU.router, antientropy.Config{}, poolSys)
	tr.end()

	gen := workload.NewUniformEvents(src.Fork("events"), p.Dims)
	preloads := []struct {
		span string
		fn   func(int, event.Event) error
	}{{"pool.Insert", poolSys.Insert}, {"dim.Insert", dimSys.Insert}, {"ght.Insert", ghtSys.Insert}, {"node.Preload", eng.Preload}}
	var stored []event.Event
	for origin := 0; origin < p.N; origin++ {
		for i := 0; i < p.PerNode; i++ {
			ev := gen.Next()
			t0 := time.Now()
			for _, ins := range preloads {
				tr.begin(ins.span)
				err := ins.fn(origin, ev)
				tr.end()
				if err != nil {
					return nil, fmt.Errorf("preload %s: %w", ins.span, err)
				}
			}
			r.insertTime += time.Since(t0)
			r.inserts++
			stored = append(stored, ev)
		}
	}

	tr.begin("chaos.RandomChurn")
	plan := chaos.RandomChurn(src.Fork("churn"), p.N, p.CrashFrac, p.RecoverFrac, p.Horizon)
	tr.end()
	bsrc := src.Fork("bursts")
	for b := 0; b < p.Bursts; b++ {
		at := time.Duration(bsrc.Float64() * 0.8 * float64(p.Horizon))
		cx, cy := bsrc.Uniform(0, layout.Side), bsrc.Uniform(0, layout.Side)
		rad := layout.Side * 0.1
		plan.Burst(at, geo.RectFromCorners(geo.Pt(cx-rad, cy-rad), geo.Pt(cx+rad, cy+rad)), p.BurstRate, p.Horizon/10)
	}
	for _, u := range universes {
		tr.begin("chaos.Schedule")
		err := u.engine.Schedule(plan)
		tr.end()
		if err != nil {
			return nil, err
		}
	}

	qgen := workload.NewQueries(src.Fork("queries"), p.Dims)
	qsrc := src.Fork("query-times")
	queries := make([]churnQuery, p.Queries)
	for i := range queries {
		queries[i] = churnQuery{
			at:    time.Duration(qsrc.Float64() * float64(p.Horizon)),
			sink:  qsrc.Intn(p.N),
			q:     qgen.ExactMatch(workload.ExponentialSizes),
			point: pointQuery(stored[qsrc.Intn(len(stored))]),
		}
	}

	var queryErr error
	nodeLatency := stats.NewIntHistogram()
	nodeDone := 0
	for _, cq := range queries {
		cq := cq
		if err := sched.At(cq.at, func() {
			for _, u := range universes[:3] {
				q := cq.q
				if u == ghtU {
					q = cq.point
				}
				sink := u.liveSink(cq.sink)
				t0 := time.Now()
				tr.begin(u.querySpan)
				got, comp, err := u.sys.QueryWithReport(sink, q)
				tr.end()
				dt := time.Since(t0)
				r.queryTime += dt
				r.queryUS = append(r.queryUS, float64(dt.Nanoseconds())/1e3)
				r.queries++
				if err != nil && queryErr == nil {
					queryErr = fmt.Errorf("%s query at %v: %w", u.name, cq.at, err)
				}
				u.record(q, cq.at, got, comp)
			}
			tr.begin("node.QueryWithReport")
			err := eng.QueryWithReport(nodeU.liveSink(cq.sink), cq.q, func(got []event.Event, comp dcs.Completeness, elapsed time.Duration) {
				nodeLatency.Add(elapsed.Milliseconds())
				nodeDone++
				nodeU.record(cq.q, cq.at, got, comp)
			})
			tr.end()
			if err != nil && queryErr == nil {
				queryErr = fmt.Errorf("node query at %v: %w", cq.at, err)
			}
		}); err != nil {
			return nil, err
		}
	}
	for _, u := range universes {
		tr.begin("discovery.Start")
		u.disc.Start()
		tr.end()
	}
	tr.begin("antientropy.Start")
	rec.Start()
	tr.end()
	// Beacons and repair rounds reschedule themselves forever; end them at
	// the horizon so the event queue drains.
	if err := sched.At(p.Horizon, func() {
		for _, u := range universes {
			u.disc.Stop()
		}
		rec.Stop()
	}); err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	r.startTimed()
	events0 := sched.Executed()
	t0 := time.Now()
	tr.begin("sim.Run")
	sched.Run()
	tr.end()
	r.opsTime = time.Since(t0)
	r.stopTimed()
	r.heap = liveHeap()
	r.simS = sched.Now().Seconds()
	r.ops = r.queries + nodeDone

	if queryErr != nil {
		r.fail("%v", queryErr)
	}
	if nodeDone != len(queries) {
		r.fail("%d of %d actor queries never completed", len(queries)-nodeDone, len(queries))
	}
	for _, err := range eng.Errors() {
		r.fail("actor engine: %v", err)
	}
	for _, u := range universes {
		for _, err := range u.engine.Errs() {
			r.fail("%s chaos: %v", u.name, err)
		}
	}
	for _, err := range rec.Errs() {
		r.fail("anti-entropy: %v", err)
	}

	// The oracle: every answer holds only stored matches, each once; a
	// complete answer given before any crash holds all of them. After a
	// crash a store may have lost events, so completeness (cells reached)
	// no longer implies every event survived.
	firstCrash := p.Horizon
	for _, f := range plan.Faults {
		if f.Kind == chaos.Crash && f.At < firstCrash {
			firstCrash = f.At
		}
	}
	det := r.det
	var recallSum float64
	var answers, short int
	for _, u := range universes {
		var uRecall float64
		for _, a := range u.answers {
			r.attempted++
			rc, ok := judge(a.keys, matchKeys(a.q, stored), nil)
			if a.complete && rc < 1 {
				short++
				if a.at < firstCrash {
					ok = false
				}
			}
			if !ok {
				r.fail("churn %s query %v at %v: %d returned, recall %.3f, complete %v",
					u.name, a.q, a.at, len(a.keys), rc, a.complete)
			}
			uRecall += rc
		}
		recallSum += uRecall
		answers += len(u.answers)
		if u == ghtU {
			det["ght.recall"] = uRecall / float64(len(u.answers))
		}
		addNetworkCounts(det, u.net)
		det["discovery.beacons"] += u.reg.Value("discovery_beacons_total")
	}
	det["recall"] = recallSum / float64(answers)
	det["bench.complete_short_answers"] = float64(short)

	var poolMsgs, dimMsgs uint64
	poolMsgs = queryMsgs(poolU.net)
	dimMsgs = queryMsgs(dimU.net)
	det["pool_msgs_per_query"] = float64(poolMsgs) / float64(len(queries))
	det["dim_msgs_per_query"] = float64(dimMsgs) / float64(len(queries))
	det["op_p99_ms"] = float64(nodeLatency.Quantile(99))
	det["sim.events"] = float64(sched.Executed() - events0)

	detect := stats.NewIntHistogram()
	for _, u := range universes {
		detect.Merge(u.engine.DetectionLatency())
	}
	det["discovery.detect_ms_p50"] = float64(detect.Quantile(50))
	det["discovery.detect_ms_p95"] = float64(detect.Quantile(95))
	det["chaos.crashes"] = float64(poolU.engine.Crashes())
	det["chaos.recoveries"] = float64(poolU.engine.Recoveries())

	det["antientropy.sessions"] = float64(rec.Sessions())
	det["antientropy.symbols"] = float64(rec.Symbols())
	det["antientropy.kb"] = float64(rec.Bytes()) / 1024
	det["antientropy.aborted"] = float64(rec.Aborted())
	det["antientropy.fallbacks"] = float64(rec.Fallbacks())
	det["antientropy.events_moved"] = float64(rec.EventsMoved())
	tr.begin("antientropy.Divergence")
	det["antientropy.divergence_end"] = float64(antientropy.Divergence(poolSys))
	tr.end()

	rep := eng.RepairLatency()
	_, repBytes := eng.RepairTraffic()
	det["node.repairs"] = float64(rep.Total())
	det["node.repair_ms_p95"] = float64(rep.Quantile(95))
	det["node.repair_kb"] = float64(repBytes) / 1024
	det["node.max_queue_depth"] = float64(eng.MaxQueueDepth())
	det["node.errors"] = float64(len(eng.Errors()))
	det["trace.events"] = float64(uint64(flight.Len()) + flight.Dropped())
	det["trace.dropped"] = float64(flight.Dropped())
	return r, nil
}

// pointQuery is the exact-match query addressing one event's key.
func pointQuery(e event.Event) event.Query {
	rs := make([]event.Range, len(e.Values))
	for i, v := range e.Values {
		rs[i] = event.PointRange(v)
	}
	return event.NewQuery(rs...)
}
