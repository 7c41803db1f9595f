package trace

import (
	"reflect"
	"testing"
	"time"
)

func TestRingEvictsOldest(t *testing.T) {
	clock := &fakeClock{}
	tr := NewRing(clock, 4)
	if tr.Capacity() != 4 {
		t.Fatalf("Capacity = %d, want 4", tr.Capacity())
	}
	for i := 0; i < 7; i++ {
		clock.t = time.Duration(i) * time.Millisecond
		tr.Hop(i, i+1, "query", 8, 1, false)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := time.Duration(i+3) * time.Millisecond
		if ev.T != want {
			t.Errorf("event %d at %v, want %v (oldest-first order)", i, ev.T, want)
		}
	}
}

func TestRingUnderCapacityBehavesLikeUnbounded(t *testing.T) {
	tr := NewRing(nil, 16)
	tr.Begin(OpQuery, 0, "")
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.End()
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d before wrap", tr.Dropped())
	}
	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncated || len(a.Roots) != 1 {
		t.Errorf("unwrapped ring analysis: truncated=%v roots=%d", a.Truncated, len(a.Roots))
	}
}

// TestRingEvictedTraceAnalyzes is the flight-recorder contract: after
// eviction claims span starts, Analyze still returns a usable partial
// Analysis instead of erroring.
func TestRingEvictedTraceAnalyzes(t *testing.T) {
	clock := &fakeClock{}
	// Capacity deliberately not a multiple of the 4 events a query
	// emits, so the surviving window starts mid-span.
	tr := NewRing(clock, 6)
	for q := 0; q < 10; q++ {
		clock.t = time.Duration(q) * time.Millisecond
		tr.Begin(OpQuery, q, "")
		tr.Hop(q, q+1, "query", 8, 1, false)
		tr.Hop(q+1, q, "reply", 16, 1, false)
		tr.End()
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring never wrapped")
	}
	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truncated {
		t.Error("evicted trace not flagged truncated")
	}
	if len(a.Roots) == 0 {
		t.Error("no surviving spans reconstructed")
	}
}

func TestRingReset(t *testing.T) {
	tr := NewRing(nil, 2)
	tr.Hop(0, 1, "query", 8, 1, false)
	tr.Hop(1, 2, "query", 8, 1, false)
	tr.Hop(2, 3, "query", 8, 1, false)
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after reset: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Hop(4, 5, "query", 8, 1, false)
	if evs := tr.Events(); len(evs) != 1 || evs[0].From != 4 {
		t.Errorf("post-reset events = %+v", evs)
	}
	if NewRing(nil, -3).Capacity() != 1 {
		t.Error("non-positive capacity not clamped to 1")
	}
}

func TestExplicitSpanAPI(t *testing.T) {
	var nilTr *Tracer
	if nilTr.BeginAt(0, OpQuery, 1, "") != 0 || nilTr.CurrentSpan() != 0 {
		t.Error("nil tracer explicit-span methods not inert")
	}
	nilTr.PushSpan(3)
	nilTr.PopSpan()
	nilTr.EndSpan(3)
	nilTr.RecordAt(time.Second, TypeWait, 1, 0, "")
	if nilTr.Dropped() != 0 || nilTr.Capacity() != 0 {
		t.Error("nil tracer ring accessors not inert")
	}

	clock := &fakeClock{}
	tr := New(clock)
	root := tr.BeginAt(0, OpQuery, 5, "q")
	if root == 0 {
		t.Fatal("BeginAt returned 0")
	}
	if tr.CurrentSpan() != 0 {
		t.Error("BeginAt touched the ambient span stack")
	}
	// A later callback re-enters the span explicitly.
	clock.t = 2 * time.Millisecond
	tr.PushSpan(root)
	if tr.CurrentSpan() != root {
		t.Error("PushSpan did not set the ambient span")
	}
	tr.Hop(5, 6, "query", 8, 1, false)
	child := tr.BeginAt(root, OpRetry, 6, "mirror")
	tr.PopSpan()
	if tr.CurrentSpan() != 0 {
		t.Error("PopSpan did not restore the ambient span")
	}
	tr.EndSpan(child)
	clock.t = 7 * time.Millisecond
	tr.EndSpan(root)
	tr.EndSpan(0) // no-op

	a, err := Analyze(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	q := a.ByID[root]
	if q == nil || q.Duration() != 7*time.Millisecond {
		t.Fatalf("root span = %+v", q)
	}
	if q.HopsOwn != 1 {
		t.Errorf("hop not attributed to the pushed span: own=%d", q.HopsOwn)
	}
	r := a.ByID[child]
	if r == nil || r.Parent != root || r.Op != OpRetry {
		t.Errorf("retry child = %+v", r)
	}
	if a.Truncated {
		t.Error("balanced explicit-span trace flagged truncated")
	}
}

func TestRecordAtStampsExplicitTime(t *testing.T) {
	clock := &fakeClock{t: 5 * time.Millisecond}
	tr := New(clock)
	id := tr.Begin(OpQuery, 1, "")
	tr.Record(TypeWait, 2, 3, "")
	tr.RecordAt(9*time.Millisecond, TypeServe, 2, 0, "")
	tr.End()
	evs := tr.Events()
	if evs[1].T != 5*time.Millisecond || evs[1].Type != TypeWait {
		t.Errorf("wait event = %+v", evs[1])
	}
	if evs[2].T != 9*time.Millisecond || evs[2].Type != TypeServe || evs[2].Span != id {
		t.Errorf("serve event = %+v", evs[2])
	}
}

// sliceRing is the single-slice ring the chunked storage replaced, kept
// as the reference model: append until full, then overwrite the oldest
// slot in place.
type sliceRing struct {
	events  []Event
	limit   int
	head    int
	dropped uint64
}

func (r *sliceRing) emit(ev Event) {
	if r.limit > 0 && len(r.events) == r.limit {
		r.events[r.head] = ev
		r.head = (r.head + 1) % r.limit
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

func (r *sliceRing) ordered() []Event {
	return append(append([]Event{}, r.events[r.head:]...), r.events[:r.head]...)
}

// TestChunkedRingMatchesSliceRing checks the chunked flight recorder
// against the slice reference for capacities below, at and above the
// chunk size, capacity 1 included: Len, Dropped and the Events order
// agree at every check, and however many times the ring wraps it never
// holds more than ⌈capacity/chunkSize⌉ chunks or more slots than its
// capacity.
func TestChunkedRingMatchesSliceRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, chunkSize - 1, chunkSize, chunkSize + 1, 2 * chunkSize, 3*chunkSize + 5} {
		tr := NewRing(nil, capacity)
		ref := &sliceRing{limit: capacity}
		maxChunks := (capacity + chunkSize - 1) / chunkSize
		// Check every emit on small rings, and a spread of points
		// (including each wrap) on large ones.
		every := 1 + capacity/13
		total := 4*capacity + 3
		for i := 0; i < total; i++ {
			ev := Event{T: time.Duration(i), From: i, To: -1, Node: -1}
			tr.emit(ev)
			ref.emit(ev)
			if i%every != 0 && (i+1)%capacity != 0 && i != total-1 {
				continue
			}
			if tr.Len() != len(ref.events) || tr.Dropped() != ref.dropped {
				t.Fatalf("cap %d after %d emits: len=%d dropped=%d, reference len=%d dropped=%d",
					capacity, i+1, tr.Len(), tr.Dropped(), len(ref.events), ref.dropped)
			}
			if got, want := tr.Events(), ref.ordered(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d emits: Events order differs from the reference", capacity, i+1)
			}
			slots := 0
			for _, c := range tr.chunks {
				slots += len(c)
			}
			if len(tr.chunks) > maxChunks || slots > capacity {
				t.Fatalf("cap %d after %d emits: %d chunks, %d slots; bound is %d chunks, %d slots",
					capacity, i+1, len(tr.chunks), slots, maxChunks, capacity)
			}
		}
	}
}

// An unbounded tracer keeps every event, in order, across chunk
// boundaries.
func TestUnboundedTracerKeepsEverything(t *testing.T) {
	tr := New(nil)
	var want []Event
	for i := 0; i < 2*chunkSize+chunkSize/2; i++ {
		ev := Event{T: time.Duration(i), From: i}
		tr.emit(ev)
		want = append(want, ev)
	}
	if tr.Len() != len(want) || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want %d and 0", tr.Len(), tr.Dropped(), len(want))
	}
	if !reflect.DeepEqual(tr.Events(), want) {
		t.Fatal("Events differ from append order")
	}
}

// Events hands out a copy: mutating it must not reach the tracer.
func TestEventsReturnsCopy(t *testing.T) {
	for _, tr := range []*Tracer{New(nil), NewRing(nil, 4)} {
		tr.Hop(0, 1, "query", 8, 1, false)
		evs := tr.Events()
		evs[0].From = 99
		if tr.Events()[0].From != 0 {
			t.Errorf("capacity %d: mutating Events() changed the recorded event", tr.Capacity())
		}
	}
}

// Reset keeps the chunks it already has: refilling a ring (or an
// unbounded tracer) to its previous size allocates no new chunk.
func TestResetReusesChunks(t *testing.T) {
	for _, tr := range []*Tracer{New(nil), NewRing(nil, 2*chunkSize+3)} {
		fill := func() {
			for i := 0; i < 3*chunkSize; i++ {
				tr.emit(Event{From: i})
			}
		}
		fill()
		before := make([]*Event, len(tr.chunks))
		for i, c := range tr.chunks {
			before[i] = &c[0]
		}
		tr.Reset()
		if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
			t.Fatalf("capacity %d: reset left len=%d dropped=%d", tr.Capacity(), tr.Len(), tr.Dropped())
		}
		fill()
		if len(tr.chunks) != len(before) {
			t.Fatalf("capacity %d: %d chunks after refill, %d before reset", tr.Capacity(), len(tr.chunks), len(before))
		}
		for i, c := range tr.chunks {
			if &c[0] != before[i] {
				t.Errorf("capacity %d: chunk %d reallocated after reset", tr.Capacity(), i)
			}
		}
	}
}
