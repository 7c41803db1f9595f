package main

import (
	"fmt"
	"time"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/load"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/workload"
)

// serveParams sizes the serve workload: the actor engine under open-loop
// Poisson load below its saturation knee.
type serveParams struct {
	N        int           `json:"nodes"`
	Dims     int           `json:"dims"`
	PerNode  int           `json:"events_per_node"`
	Rate     float64       `json:"rate_per_s"`
	Duration time.Duration `json:"duration_ns"`
	Mix      load.Mix      `json:"mix"`
	Skew     float64       `json:"zipf_skew"`
}

func defaultServeParams() serveParams {
	return serveParams{
		N:        900,
		Dims:     3,
		PerNode:  3,
		Rate:     200,
		Duration: 120 * time.Second,
		Mix:      load.DefaultMix,
		Skew:     0.8,
	}
}

// deployActor builds the deployment load.Deploy("pool-actor") builds, from
// the same seed forks, keeping the engine and radio in reach so the run can
// read their counters and errors.
func deployActor(p serveParams, src *rng.Source, sched *sim.Scheduler, tr *tracer) (*node.Engine, *network.Network, []event.Event, error) {
	tr.begin("field.Generate")
	layout, err := field.Generate(field.DefaultSpec(p.N), src.Fork("layout"))
	tr.end()
	if err != nil {
		return nil, nil, nil, err
	}
	tr.begin("gpsr.New")
	router := gpsr.New(layout)
	tr.end()
	tr.begin("network.New")
	net := network.New(layout)
	tr.end()
	gen := workload.NewUniformEvents(src.Fork("preload"), p.Dims)
	tr.begin("node.NewEngine")
	eng, err := node.NewEngine(net, router, sched, p.Dims, src.Fork("pivots"), nil)
	tr.end()
	if err != nil {
		return nil, nil, nil, err
	}
	var stored []event.Event
	for i := 0; i < layout.N(); i++ {
		for j := 0; j < p.PerNode; j++ {
			ev := gen.Next()
			tr.begin("node.Insert")
			err := eng.Insert(i, ev, nil)
			tr.end()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("preload: %w", err)
			}
			stored = append(stored, ev)
		}
	}
	tr.begin("sim.Run")
	sched.Run()
	tr.end()
	return eng, net, stored, nil
}

// checkedTarget is load's actor target with the operation outcomes kept
// for the oracle: it launches the same engine calls ActorTarget.Launch
// does, and records each insert's completion and each query's answer.
type checkedTarget struct {
	*load.ActorTarget
	eng     *node.Engine
	tr      *tracer
	inserts []event.Event // completed inserts, in completion order
	answers []serveAnswer
}

// serveAnswer is one query's answer and how many inserts had completed
// when it was launched and when it was answered.
type serveAnswer struct {
	q              event.Query
	launched, done int
	keys           []uint64
}

func (t *checkedTarget) Launch(op *load.Op, station int, done func()) error {
	if op.Class == load.Insert {
		ev := op.Event
		t.tr.begin("node.Insert")
		defer t.tr.end()
		return t.eng.Insert(op.Node, ev, func() {
			t.inserts = append(t.inserts, ev)
			done()
		})
	}
	a := serveAnswer{q: op.Query, launched: len(t.inserts)}
	t.tr.begin("node.Query")
	defer t.tr.end()
	return t.eng.Query(op.Node, op.Query, func(results []event.Event, _ time.Duration) {
		a.done = len(t.inserts)
		a.keys = keysOf(results)
		t.answers = append(t.answers, a)
		done()
	})
}

func runServe(p serveParams, seed int64, tr *tracer) (*passResult, error) {
	r := newPassResult()
	setupStart := time.Now()
	sched := sim.NewScheduler()
	eng, net, preload, err := deployActor(p, rng.New(deploySeed), sched, tr)
	if err != nil {
		return nil, err
	}
	tr.begin("load.NewActorTarget")
	target := &checkedTarget{ActorTarget: load.NewActorTarget(eng, 0), eng: eng, tr: tr}
	tr.end()
	tr.begin("load.NewEngine")
	le, err := load.NewEngine(sched, target, p.N, load.Config{
		Seed:     seed,
		Rate:     p.Rate,
		Duration: p.Duration,
		Dims:     p.Dims,
		Mix:      p.Mix,
		Skew:     p.Skew,
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	msgs0 := queryMsgs(net)
	events0, virt0 := sched.Executed(), sched.Now()
	r.startTimed()
	t0 := time.Now()
	tr.begin("load.Run")
	rep, err := le.Run()
	tr.end()
	r.opsTime = time.Since(t0)
	r.stopTimed()
	r.heap = liveHeap()
	if err != nil {
		return nil, err
	}
	r.queryTime, r.insertTime = r.opsTime, r.opsTime
	r.inserts = int(rep.PerClass[load.Insert].Served)
	r.queries = int(rep.Served) - r.inserts
	r.ops = int(rep.Served)
	r.simS = (sched.Now() - virt0).Seconds()
	r.attempted = int(rep.Offered)

	for _, err := range eng.Errors() {
		r.fail("actor engine: %v", err)
	}
	if rep.Shed > 0 || rep.Abandoned > 0 {
		r.failed += int(rep.Shed + rep.Abandoned)
		r.failures = append(r.failures, fmt.Sprintf("serve: %d shed, %d abandoned of %d offered", rep.Shed, rep.Abandoned, rep.Offered))
	}

	// The oracle: an answer holds only stored matches, each once, and every
	// match whose insert completed before the query was launched.
	var recallSum float64
	for _, a := range target.answers {
		want := matchKeys(a.q, preload, target.inserts[:a.launched])
		rc, ok := judge(a.keys, want, matchKeys(a.q, target.inserts[a.launched:a.done]))
		if rc < 1 || !ok {
			r.fail("serve query %v: %d returned, recall %.3f", a.q, len(a.keys), rc)
		}
		recallSum += rc
	}

	det := r.det
	q := rep.QueryLatency()
	det["recall"] = recallSum / float64(len(target.answers))
	det["pool_msgs_per_query"] = ratio(float64(queryMsgs(net)-msgs0), float64(r.queries))
	det["op_p99_ms"] = float64(q.Quantile(99))
	det["sim.events"] = float64(sched.Executed() - events0)
	addNetworkCounts(det, net)
	det["node.max_queue_depth"] = float64(eng.MaxQueueDepth())
	det["node.errors"] = float64(len(eng.Errors()))
	det["load.offered"] = float64(rep.Offered)
	det["load.served"] = float64(rep.Served)
	det["load.shed"] = float64(rep.Shed)
	det["load.abandoned"] = float64(rep.Abandoned)
	det["load.max_depth"] = float64(rep.MaxDepth)
	det["load.point_ms_p99"] = float64(rep.PerClass[load.PointQuery].Latency.Quantile(99))
	det["load.range_ms_p99"] = float64(rep.PerClass[load.RangeQuery].Latency.Quantile(99))
	det["load.insert_ms_p99"] = float64(rep.PerClass[load.Insert].Latency.Quantile(99))
	return r, nil
}
