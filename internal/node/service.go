package node

import (
	"time"

	"pooldcs/internal/event"
)

// EnableService switches the engine into service mode: every delivered
// packet occupies its destination node for perPacket of virtual time,
// and each node processes packets serially in arrival order. Without
// service mode (the default) nodes have infinite processing capacity and
// per-hop latency is the only delay — correct for the paper's
// message-count experiments, blind to saturation. With it, a node
// offered packets faster than 1/perPacket queues them, which is what the
// sustained-load harness measures.
//
// Disable by passing 0. Result sets are identical either way; only
// timing changes.
func (e *Engine) EnableService(perPacket time.Duration) {
	e.svcTime = perPacket
	if perPacket > 0 && e.svcBusy == nil {
		e.svcBusy = make([]time.Duration, e.layout.N())
		e.svcDepth = make([]int, e.layout.N())
	}
}

// QueueDepth returns the number of packets queued or in service at a
// node (always 0 outside service mode). Admission controllers consult
// this for shedding decisions.
func (e *Engine) QueueDepth(node int) int {
	if e.svcDepth == nil {
		return 0
	}
	return e.svcDepth[node]
}

// MaxQueueDepth returns the deepest per-node service queue observed.
func (e *Engine) MaxQueueDepth() int { return e.svcMaxDepth }

// SplittersFor returns the distinct splitter nodes that would serve q
// issued from sink, in pool-dimension order. Empty when no pool is
// relevant to q.
func (e *Engine) SplittersFor(sink int, q event.Query) []int {
	rq := q.Rewrite()
	var out []int
	for _, p := range e.geo.Pools() {
		if cells := p.RelevantCells(rq); len(cells) == 0 {
			continue
		}
		s := e.geo.Splitter(p, sink)
		dup := false
		for _, have := range out {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}
