package pool

import (
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/network"
	"pooldcs/internal/rng"
)

func TestSubscribeReceivesMatchingInserts(t *testing.T) {
	s, net := newSystem(t, 300, 110)
	q := event.NewQuery(event.Span(0.7, 0.9), event.Span(0, 0.5), event.Span(0, 0.5))
	sub, err := s.Subscribe(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if net.Snapshot().Messages[network.KindControl] == 0 {
		t.Error("subscription registration cost no control traffic")
	}

	match := event.New(0.8, 0.2, 0.1)
	match.Seq = 1
	if err := s.Insert(10, match); err != nil {
		t.Fatal(err)
	}
	miss := event.New(0.2, 0.8, 0.1) // greatest value in dim 2, outside q
	miss.Seq = 2
	if err := s.Insert(11, miss); err != nil {
		t.Fatal(err)
	}

	notes := s.Notifications()
	if len(notes) != 1 {
		t.Fatalf("got %d notifications, want 1: %v", len(notes), notes)
	}
	n := notes[0]
	if n.SubscriptionID != sub.ID || n.Sink != 3 || n.Event.Seq != 1 {
		t.Errorf("notification = %+v", n)
	}
	// Buffer drained.
	if len(s.Notifications()) != 0 {
		t.Error("Notifications did not drain the buffer")
	}
}

func TestSubscribeDoesNotReportHistory(t *testing.T) {
	s, _ := newSystem(t, 300, 111)
	old := event.New(0.8, 0.2, 0.1)
	old.Seq = 5
	if err := s.Insert(0, old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(1, event.NewQuery(event.Span(0.7, 0.9), event.Span(0, 0.5), event.Span(0, 0.5))); err != nil {
		t.Fatal(err)
	}
	if notes := s.Notifications(); len(notes) != 0 {
		t.Errorf("pre-existing events reported: %v", notes)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	s, _ := newSystem(t, 300, 112)
	q := event.NewQuery(event.Span(0.7, 0.9), event.Span(0, 0.5), event.Span(0, 0.5))
	sub, err := s.Subscribe(3, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	e := event.New(0.8, 0.2, 0.1)
	e.Seq = 9
	if err := s.Insert(10, e); err != nil {
		t.Fatal(err)
	}
	if notes := s.Notifications(); len(notes) != 0 {
		t.Errorf("notifications after unsubscribe: %v", notes)
	}
	// Double unsubscribe fails cleanly.
	if err := s.Unsubscribe(sub); err == nil {
		t.Error("double unsubscribe accepted")
	}
	if err := s.Unsubscribe(nil); err == nil {
		t.Error("nil unsubscribe accepted")
	}
}

func TestMultipleSubscribers(t *testing.T) {
	s, _ := newSystem(t, 300, 113)
	q1 := event.NewQuery(event.Span(0.7, 0.9), event.Unspecified(), event.Unspecified())
	q2 := event.NewQuery(event.Span(0.75, 0.85), event.Unspecified(), event.Unspecified())
	if _, err := s.Subscribe(1, q1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(2, q2); err != nil {
		t.Fatal(err)
	}

	e := event.New(0.8, 0.2, 0.1)
	e.Seq = 1
	if err := s.Insert(0, e); err != nil {
		t.Fatal(err)
	}
	notes := s.Notifications()
	if len(notes) != 2 {
		t.Fatalf("got %d notifications, want 2 (both subscribers match)", len(notes))
	}

	edge := event.New(0.72, 0.2, 0.1) // inside q1 only
	edge.Seq = 2
	if err := s.Insert(0, edge); err != nil {
		t.Fatal(err)
	}
	notes = s.Notifications()
	if len(notes) != 1 || notes[0].Sink != 1 {
		t.Fatalf("got %v, want one notification for sink 1", notes)
	}
}

func TestSubscriptionValidation(t *testing.T) {
	s, _ := newSystem(t, 300, 114)
	if _, err := s.Subscribe(0, event.NewQuery(event.Span(0.9, 0.1), event.Span(0, 1), event.Span(0, 1))); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := s.Subscribe(0, event.NewQuery(event.Span(0, 1))); err == nil {
		t.Error("wrong dimensionality accepted")
	}
}

func TestContinuousQueryUnderLoad(t *testing.T) {
	s, net := newSystem(t, 300, 115)
	q := event.NewQuery(event.Unspecified(), event.Unspecified(), event.Span(0.8, 0.84))
	if _, err := s.Subscribe(5, q); err != nil {
		t.Fatal(err)
	}
	src := rng.New(116)
	wantMatches := 0
	rq := q.Rewrite()
	for i := 0; i < 500; i++ {
		e := event.New(src.Float64(), src.Float64(), src.Float64())
		e.Seq = uint64(i + 1)
		if rq.Matches(e) {
			wantMatches++
		}
		if err := s.Insert(src.Intn(300), e); err != nil {
			t.Fatal(err)
		}
	}
	notes := s.Notifications()
	if len(notes) != wantMatches {
		t.Fatalf("got %d notifications, want %d", len(notes), wantMatches)
	}
	if wantMatches == 0 {
		t.Fatal("vacuous test: no matching events generated")
	}
	if net.Snapshot().Messages[network.KindReply] == 0 {
		t.Error("notifications cost no reply traffic")
	}
}

// TestSubscribeFailureRegistersNothing: a subscription whose registration
// walk runs into an undetected corpse returns an error, and the caller
// gets no handle to Unsubscribe with — so no cell may keep it registered
// (such a cell would push notifications for it forever).
func TestSubscribeFailureRegistersNothing(t *testing.T) {
	s, net, _ := newUniverse(t, 300, 580)
	sink := 0
	// The victim holds the last cell the walk reaches: every cell before
	// it has already been visited when the walk fails.
	last := s.pools[len(s.pools)-1]
	cells := last.RelevantCells(fullDomain().Rewrite())
	victim := s.holder[cells[len(cells)-1]]
	if victim == sink || victim == s.Splitter(last, sink) {
		t.Fatalf("victim %d is the sink or the splitter", victim)
	}
	net.FailNode(victim)

	if _, err := s.Subscribe(sink, fullDomain()); err == nil {
		t.Fatal("subscription through an undetected corpse succeeded")
	}
	if len(s.subs) != 0 || s.Stats().Subscriptions != 0 {
		t.Fatalf("failed subscription left %d cells registered", len(s.subs))
	}
}
