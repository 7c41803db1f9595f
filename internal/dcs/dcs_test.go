package dcs

import (
	"testing"

	"pooldcs/internal/field"
	"pooldcs/internal/geo"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

func TestPayloadSizes(t *testing.T) {
	if EventBytes(3) != 16+24 {
		t.Errorf("EventBytes(3) = %d", EventBytes(3))
	}
	if QueryBytes(3) != 16+48 {
		t.Errorf("QueryBytes(3) = %d", QueryBytes(3))
	}
	if ReplyBytes(3, 0) != 16 {
		t.Errorf("empty reply = %d, want ack size", ReplyBytes(3, 0))
	}
	if ReplyBytes(3, 2) != 16+48 {
		t.Errorf("ReplyBytes(3,2) = %d", ReplyBytes(3, 2))
	}
	if ReplyBytes(3, 5) <= ReplyBytes(3, 1) {
		t.Error("reply size must grow with result count")
	}
}

func TestUnicastChargesPerHop(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0), geo.Pt(90, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)

	hops, err := Unicast(net, router, 0, 3, network.KindQuery, 10, new([]int))
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 {
		t.Errorf("hops = %d, want 3", hops)
	}
	c := net.Snapshot()
	if c.Messages[network.KindQuery] != 3 {
		t.Errorf("messages = %d, want 3", c.Messages[network.KindQuery])
	}
	if c.Bytes[network.KindQuery] != 30 {
		t.Errorf("bytes = %d, want 30", c.Bytes[network.KindQuery])
	}
}

func TestUnicastSelf(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	hops, err := Unicast(net, gpsr.New(l), 1, 1, network.KindReply, 10, new([]int))
	if err != nil || hops != 0 {
		t.Errorf("self unicast = %d hops, err %v", hops, err)
	}
	if net.Snapshot().Total() != 0 {
		t.Error("self unicast must be free")
	}
}

func TestReport(t *testing.T) {
	c := network.Counters{EnergyJ: 1.5}
	c.Messages[network.KindInsert] = 5
	c.Messages[network.KindQuery] = 7
	c.Messages[network.KindReply] = 3
	r := Report(c)
	if r.Messages != 15 || r.InsertMessages != 5 || r.QueryMessages != 7 || r.ReplyMessages != 3 {
		t.Errorf("Report = %+v", r)
	}
	if r.EnergyJ != 1.5 {
		t.Errorf("EnergyJ = %v", r.EnergyJ)
	}
}

func TestUnicastRetransmitsOnLoss(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l, network.WithLossRate(0.3, rng.New(1)))
	router := gpsr.New(l)

	sent, err := Unicast(net, router, 0, 2, network.KindQuery, 10, new([]int))
	if err != nil {
		t.Fatal(err)
	}
	// Two logical hops; with 30% loss, usually more than two frames.
	if sent < 2 {
		t.Errorf("sent %d frames for a 2-hop unicast", sent)
	}
	if got := net.Snapshot().Messages[network.KindQuery]; got != uint64(sent) {
		t.Errorf("counters %d != reported %d", got, sent)
	}
}

func TestUnicastLossyExpectedOverhead(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.2
	net := network.New(l, network.WithLossRate(p, rng.New(2)))
	router := gpsr.New(l)
	total := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		n, err := Unicast(net, router, 0, 1, network.KindControl, 4, new([]int))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// Expected frames per hop ≈ 1/(1−p) = 1.25.
	mean := float64(total) / trials
	if mean < 1.2 || mean > 1.32 {
		t.Errorf("mean frames/hop = %v, want ≈1.25", mean)
	}
}

func TestUnicastGivesUpAfterMaxRetries(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Loss rate ~1: every frame drops.
	net := network.New(l, network.WithLossRate(0.999999999, rng.New(3)))
	router := gpsr.New(l)
	if _, err := Unicast(net, router, 0, 1, network.KindQuery, 4, new([]int)); err == nil {
		t.Fatal("expected failure on an always-lossy link")
	}
}

func TestGeoUnicast(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0), geo.Pt(90, 0)}
	l, err := field.FromPositions(pts, 120, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	router := gpsr.New(l)

	home, hops, err := GeoUnicast(net, router, 0, geo.Pt(88, 0), network.KindInsert, 24)
	if err != nil {
		t.Fatal(err)
	}
	if home != 3 {
		t.Errorf("home = %d, want 3", home)
	}
	// Greedy takes 3 hops; the home-node perimeter probe around the
	// (node-free) target point adds more. Every transmission is counted.
	if hops < 3 {
		t.Errorf("hops = %d, want ≥ 3", hops)
	}
	if got := net.Snapshot().Messages[network.KindInsert]; got != uint64(hops) {
		t.Errorf("messages = %d, want %d", got, hops)
	}
}

func TestGeoUnicastSelfTarget(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l)
	home, hops, err := GeoUnicast(net, gpsr.New(l), 1, geo.Pt(30, 0), network.KindQuery, 8)
	if err != nil || home != 1 || hops != 0 {
		t.Errorf("self geo unicast: home %d hops %d err %v", home, hops, err)
	}
}

func TestGeoUnicastLossyRetransmits(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0), geo.Pt(60, 0)}
	l, err := field.FromPositions(pts, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(l, network.WithLossRate(0.4, rng.New(9)))
	total := 0
	for i := 0; i < 200; i++ {
		_, sent, err := GeoUnicast(net, gpsr.New(l), 0, geo.Pt(60, 0), network.KindReply, 8)
		if err != nil {
			t.Fatal(err)
		}
		total += sent
	}
	// 2 logical hops × 200 trials at 40% loss → well above 400 frames.
	if total <= 450 {
		t.Errorf("lossy geo unicast sent only %d frames", total)
	}
}
