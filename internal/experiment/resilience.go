package experiment

import (
	"fmt"

	"pooldcs/internal/deploy"
	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/node"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
	"pooldcs/internal/texttable"
	"pooldcs/internal/workload"
)

// Resilience measures query recall under random node failures, with and
// without Pool's cell-level replication (an extension in the spirit of
// the resilient-DCS work the paper cites as [7]): the fraction of stored
// events still retrievable after a growing share of nodes dies, plus the
// recovery traffic replication spends.
//
// With cfg.Backend == "node" the sweep runs on the event-driven actor
// engine instead (see resilienceNode): the same crash storm, but every
// re-election and mirror restore is a real multi-hop exchange.
func Resilience(cfg Config, failPcts []int) (*Result, error) {
	if cfg.Backend == "node" {
		return resilienceNode(cfg, failPcts)
	}
	title := fmt.Sprintf("Query recall under node failures, N=%d", cfg.PartialSize)
	table := texttable.New(title, "Failed%", "Pool recall", "Pool+replica recall", "RecoveryMsgs")

	type row struct {
		plain, repl  float64
		recoveryMsgs int
	}
	rows, err := forEach(cfg.parallel(), len(failPcts), func(i int) (row, error) {
		pct := failPcts[i]
		src := rng.New(cfg.Seed + 9800 + int64(pct))
		env, err := NewEnv(cfg.PartialSize, cfg.Dims, src)
		if err != nil {
			return row{}, err
		}
		replNet := network.New(env.Layout)
		repl, err := pool.New(replNet, env.Router, cfg.Dims, src.Fork("pivots-repl"), pool.WithReplication())
		if err != nil {
			return row{}, err
		}

		events := GenerateEvents(env.Layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		for _, pe := range events {
			if err := env.Pool.Insert(pe.Origin, pe.Event); err != nil {
				return row{}, err
			}
			if err := repl.Insert(pe.Origin, pe.Event); err != nil {
				return row{}, err
			}
		}

		// Kill the same random nodes in both systems.
		sink, err := killPct(src.Fork("kills"), cfg.PartialSize, pct, func(v int) error {
			if err := env.Pool.FailNode(v); err != nil {
				return err
			}
			return repl.FailNode(v)
		})
		if err != nil {
			return row{}, err
		}

		full := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
		plainGot, err := env.Pool.Query(sink, full)
		if err != nil {
			return row{}, err
		}
		replGot, err := repl.Query(sink, full)
		if err != nil {
			return row{}, err
		}
		total := float64(len(events))
		return row{
			plain:        float64(len(plainGot)) / total,
			repl:         float64(len(replGot)) / total,
			recoveryMsgs: int(repl.RecoveryMessages()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pct := range failPcts {
		table.AddRow(texttable.Int(pct),
			texttable.Float(rows[i].plain, 3),
			texttable.Float(rows[i].repl, 3),
			texttable.Int(rows[i].recoveryMsgs))
	}
	return &Result{ID: "ablation-resilience", Title: title, Table: table}, nil
}

// resilienceNode is the actor-engine flavour of the resilience sweep
// (poolsim -backend=node, optionally -repair). Each crash tears the
// victim down at every layer — routing, radio, storage — and, when
// replication is on, launches the message-driven repair: suspicion,
// re-election claims and grants, and hop-by-hop mirror transfer chunks,
// all racing the other crashes of the storm. The query drains the
// scheduler, so the reported recall is the post-convergence state; the
// repair columns price what convergence cost.
func resilienceNode(cfg Config, failPcts []int) (*Result, error) {
	mode, backend := "unreplicated", "node"
	if cfg.Repair {
		mode, backend = "mirrored, message-driven restore", "node+repair"
	}
	title := fmt.Sprintf("Query recall under node failures, N=%d (actor backend, %s)", cfg.PartialSize, mode)
	table := texttable.New(title, "Failed%", "Recall", "Compl", "Repair msgs", "Rep p95 ms")

	type row struct {
		recall, compl float64
		msgs          uint64
		p95           int64
	}
	rows, err := forEach(cfg.parallel(), len(failPcts), func(i int) (row, error) {
		pct := failPcts[i]
		src := rng.New(cfg.Seed + 9800 + int64(pct))
		layout, err := deploy.Layout(field.DefaultSpec(cfg.PartialSize), src)
		if err != nil {
			return row{}, err
		}
		u, err := deploy.NewUniverse(layout, sim.NewScheduler(), backend, cfg.Dims, src.Fork("pivots"), nil)
		if err != nil {
			return row{}, err
		}
		sys := u.Sys.(*node.Sync)
		eng := sys.Engine()

		events := GenerateEvents(layout, cfg.EventsPerNode, workload.NewUniformEvents(src.Fork("events"), cfg.Dims))
		for _, pe := range events {
			if err := sys.Insert(pe.Origin, pe.Event); err != nil {
				return row{}, err
			}
		}

		sink, err := killPct(src.Fork("kills"), cfg.PartialSize, pct, u.CrashDetected)
		if err != nil {
			return row{}, err
		}

		full := event.NewQuery(event.Span(0, 1), event.Span(0, 1), event.Span(0, 1))
		got, comp, err := sys.QueryWithReport(sink, full)
		if err != nil {
			return row{}, err
		}
		if errs := eng.Errors(); len(errs) > 0 {
			return row{}, fmt.Errorf("resilience %d%%: %w", pct, errs[0])
		}
		msgs, _ := eng.RepairTraffic()
		return row{
			recall: float64(len(got)) / float64(len(events)),
			compl:  comp.Fraction(),
			msgs:   msgs,
			p95:    eng.RepairLatency().Quantile(95),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pct := range failPcts {
		table.AddRow(texttable.Int(pct),
			texttable.Float(rows[i].recall, 3),
			texttable.Float(rows[i].compl, 3),
			texttable.Int(int(rows[i].msgs)),
			texttable.Int(int(rows[i].p95)))
	}
	return &Result{ID: "ablation-resilience", Title: title, Table: table}, nil
}

// killPct fails pct percent of the n nodes, distinct victims drawn from
// kills in order, through fail, and returns the lowest surviving node as
// the sink.
func killPct(kills *rng.Source, n, pct int, fail func(v int) error) (sink int, err error) {
	toKill := n * pct / 100
	killed := make(map[int]bool, toKill)
	for len(killed) < toKill {
		v := kills.Intn(n)
		if killed[v] {
			continue
		}
		killed[v] = true
		if err := fail(v); err != nil {
			return 0, err
		}
	}
	for killed[sink] {
		sink++
	}
	return sink, nil
}
