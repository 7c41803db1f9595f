package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// A tracer records one span per call the benchmark makes into a layer of
// the program: its name (`<module>.<Func>`), host start and end, and the
// span that was open when it began. Spans stay in memory until the run
// ends. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	open  []int32
}

type span struct {
	pass       int32
	parent     int32 // index into spans, -1 for a root
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{pass: int32(t.pass), parent: parent, name: name, start: time.Since(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = time.Since(t.t0)
	t.open = t.open[:n]
}

// layerTime is the traced host time of one span name.
type layerTime struct {
	calls int
	total time.Duration // span time
	self  time.Duration // span time minus child-span time
}

// layerTimes sums span and self time per span name.
func (t *tracer) layerTimes() map[string]*layerTime {
	out := make(map[string]*layerTime)
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.calls++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"pass":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, s.pass, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
