package discovery

import (
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
	"pooldcs/internal/sim"
)

// BenchmarkBeaconRound is the membership layer's rung of the benchmark
// ladder: one full beacon round at N=900 — every node broadcasts once
// over 5% lossy links, stamps its receivers' tables and sweeps its own —
// on a fixed layout. A warm-up fills the tables and sizes the
// scheduler's arena first, so the steady state must not allocate.
func BenchmarkBeaconRound(b *testing.B) {
	layout, err := field.Generate(field.DefaultSpec(900), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	net := network.New(layout, network.WithLossRate(0.05, rng.New(43)))
	p := New(net, sched, rng.New(44), Config{})
	p.Start()
	round := p.Config().Interval
	if err := sched.RunUntil(50*round, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.RunUntil(sched.Now()+round, 0); err != nil {
			b.Fatal(err)
		}
	}
}
