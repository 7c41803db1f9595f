package antientropy

import (
	"fmt"
	"time"

	"pooldcs/internal/dcs"
	"pooldcs/internal/event"
	"pooldcs/internal/gpsr"
	"pooldcs/internal/metrics"
	"pooldcs/internal/network"
	"pooldcs/internal/sim"
	"pooldcs/internal/stats"
)

// Store is one side of a replica pair: a digest-addressable view of the
// events a node holds for the replicated unit (a pool cell's
// primary/mirror copy, a GHT root's structured-replication share).
type Store interface {
	// Node is the network node holding this side.
	Node() int
	// AppendDigests appends the digest of every held event to buf.
	// Duplicates are allowed; the codec collapses them.
	AppendDigests(buf []uint64) []uint64
	// Fetch returns the event behind a digest.
	Fetch(digest uint64) (event.Event, bool)
	// Insert adds a missing event to this side.
	Insert(e event.Event)
	// Len returns the number of held events.
	Len() int
}

// Pair is one replicated unit to keep in sync. Label must be stable
// across rounds (it keys the divergence-window bookkeeping) and name the
// *role*, not the node, so re-homed replicas keep their history.
type Pair struct {
	Label   string
	Primary Store
	Replica Store
}

// PairSource enumerates a backend's replica pairs. The enumeration must
// be deterministic: same system state, same order.
type PairSource interface {
	ReplicaPairs() []Pair
}

// Session framing for the cost model, mirroring the dcs payload helpers:
// every frame carries a 16-byte header, coded symbols are SymbolBytes
// each, and a digest request lists 8-byte digests.
const sessionHeaderBytes = 16

func frameBytes(symbols int) int  { return sessionHeaderBytes + symbols*SymbolBytes }
func digestBytes(digests int) int { return sessionHeaderBytes + digests*8 }

// Config tunes the reconciler. The zero value selects the defaults.
type Config struct {
	// Period is the background round interval (default 5s).
	Period time.Duration
	// FirstBatch is the coded-symbol count of a session's opening frame
	// (default 1, so an in-sync pair confirms equality in one ~40-byte
	// frame). Batches double per frame up to MaxBatch (default 16).
	FirstBatch int
	MaxBatch   int
	// MaxSymbols bounds a session's rateless stream; past it the session
	// falls back to a full snapshot exchange (default 512).
	MaxSymbols int
	// Snapshot forces every session to the naive full-snapshot exchange —
	// the baseline the experiments compare rateless reconciliation against.
	Snapshot bool
}

func (c Config) period() time.Duration {
	if c.Period > 0 {
		return c.Period
	}
	return 5 * time.Second
}

func (c Config) firstBatch() int {
	if c.FirstBatch > 0 {
		return c.FirstBatch
	}
	return 1
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 16
}

func (c Config) maxSymbols() int {
	if c.MaxSymbols > 0 {
		return c.MaxSymbols
	}
	return 512
}

// pairState tracks a pair's divergence window between rounds.
type pairState struct {
	// lastSync is the last virtual time the pair was known equal.
	lastSync time.Duration
	// diverged marks a window opened by a repairing or aborted session;
	// divergedAt is the lastSync at that moment — the last instant the
	// replicas were provably in sync, an upper bound on when they split.
	diverged   bool
	divergedAt time.Duration
}

// Reconciler runs anti-entropy sessions between replica pairs as
// scheduled background traffic. Each round it walks every source's
// pairs and reconciles them over routed unicast (KindControl frames, so
// repair traffic never pollutes the data-path counters); a session that
// hits a dead or partitioned replica aborts gracefully and retries next
// round.
type Reconciler struct {
	sched  *sim.Scheduler
	net    *network.Network
	router *gpsr.Router
	cfg    Config
	srcs   []PairSource

	state map[string]*pairState

	pathBuf  []int
	bufA     []uint64
	bufB     []uint64
	eventBuf []event.Event

	sessions  uint64
	aborted   uint64
	fallbacks uint64
	symbols   uint64
	bytes     uint64
	moved     uint64
	conv      *stats.IntHistogram
	errs      []error

	running bool
}

// New builds a reconciler over the given pair sources. Call Start to
// begin background rounds, or RunRound to drive it manually.
func New(sched *sim.Scheduler, net *network.Network, router *gpsr.Router, cfg Config, srcs ...PairSource) *Reconciler {
	return &Reconciler{
		sched:  sched,
		net:    net,
		router: router,
		cfg:    cfg,
		srcs:   srcs,
		state:  make(map[string]*pairState),
		conv:   stats.NewIntHistogram(),
	}
}

// EnableMetrics registers the repair metric families on reg.
func (r *Reconciler) EnableMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.CounterFunc("repair_sessions_total", "Completed anti-entropy reconciliation sessions.",
		func() float64 { return float64(r.sessions) })
	reg.CounterFunc("repair_sessions_aborted_total", "Reconciliation sessions aborted by unreachable replicas.",
		func() float64 { return float64(r.aborted) })
	reg.CounterFunc("repair_snapshot_fallbacks_total", "Rateless sessions that fell back to a full snapshot exchange.",
		func() float64 { return float64(r.fallbacks) })
	reg.CounterFunc("repair_symbols_total", "Coded symbols transmitted by reconciliation sessions.",
		func() float64 { return float64(r.symbols) })
	reg.CounterFunc("repair_bytes_total", "Payload bytes transmitted by reconciliation sessions.",
		func() float64 { return float64(r.bytes) })
	reg.CounterFunc("repair_events_moved_total", "Events copied between replicas by reconciliation.",
		func() float64 { return float64(r.moved) })
	reg.HistogramOf("repair_convergence_ms", "Divergence-window length closed per repairing session, milliseconds.", r.conv)
}

// Start schedules background rounds every Period of virtual time.
func (r *Reconciler) Start() {
	if r.running {
		return
	}
	r.running = true
	r.sched.After(r.cfg.period(), r.tick)
}

// Stop halts background rounds; pending ticks become no-ops.
func (r *Reconciler) Stop() { r.running = false }

// Kick schedules an immediate extra round — wired to recovery events so
// a rejoining node is repaired without waiting out the period.
func (r *Reconciler) Kick() {
	if !r.running {
		return
	}
	r.sched.After(0, func() {
		if r.running {
			r.RunRound()
		}
	})
}

func (r *Reconciler) tick() {
	if !r.running {
		return
	}
	r.RunRound()
	r.sched.After(r.cfg.period(), r.tick)
}

// RunRound reconciles every pair of every source once and returns the
// number of events moved.
func (r *Reconciler) RunRound() int {
	total := 0
	for _, src := range r.srcs {
		for _, p := range src.ReplicaPairs() {
			total += r.reconcile(p)
		}
	}
	return total
}

// Accessors for the experiment tables and tests.

// Sessions returns completed sessions.
func (r *Reconciler) Sessions() uint64 { return r.sessions }

// Aborted returns sessions abandoned on unreachable replicas.
func (r *Reconciler) Aborted() uint64 { return r.aborted }

// Fallbacks returns rateless sessions that fell back to snapshots.
func (r *Reconciler) Fallbacks() uint64 { return r.fallbacks }

// Symbols returns coded symbols transmitted.
func (r *Reconciler) Symbols() uint64 { return r.symbols }

// Bytes returns payload bytes transmitted by sessions.
func (r *Reconciler) Bytes() uint64 { return r.bytes }

// EventsMoved returns events copied between replicas.
func (r *Reconciler) EventsMoved() uint64 { return r.moved }

// Convergence returns the divergence-window histogram (milliseconds).
func (r *Reconciler) Convergence() *stats.IntHistogram { return r.conv }

// Errs returns non-degradable session failures; a correct deployment
// never produces any.
func (r *Reconciler) Errs() []error { return r.errs }

func (r *Reconciler) stateOf(label string) *pairState {
	st, ok := r.state[label]
	if !ok {
		st = &pairState{}
		r.state[label] = st
	}
	return st
}

// reconcile runs one session and settles the pair's divergence window:
// a session that moved events (or aborted) opens the window at the last
// provably-in-sync instant; a session that completed closes it and
// observes its length in the convergence histogram.
func (r *Reconciler) reconcile(p Pair) int {
	st := r.stateOf(p.Label)
	var moved int
	var err error
	if r.cfg.Snapshot {
		moved, err = r.snapshotSession(p)
	} else {
		moved, err = r.ratelessSession(p)
	}
	r.moved += uint64(moved)
	if err != nil {
		if !dcs.IsDegradable(err) {
			r.errs = append(r.errs, fmt.Errorf("antientropy %s: %w", p.Label, err))
			return moved
		}
		r.aborted++
		if !st.diverged {
			st.diverged, st.divergedAt = true, st.lastSync
		}
		return moved
	}
	r.sessions++
	if moved > 0 && !st.diverged {
		st.diverged, st.divergedAt = true, st.lastSync
	}
	now := r.sched.Now()
	if st.diverged {
		r.conv.Add((now - st.divergedAt).Milliseconds())
		st.diverged = false
	}
	st.lastSync = now
	return moved
}

// unicast sends one session frame, charging the cost model on success.
func (r *Reconciler) unicast(from, to int, payload int) error {
	_, err := dcs.Unicast(r.net, r.router, from, to, network.KindControl, payload, &r.pathBuf)
	if err == nil {
		r.bytes += uint64(payload)
	}
	return err
}

// ratelessSession streams coded symbols primary→replica in doubling
// batches until the replica peel-decodes the symmetric difference, then
// transfers exactly the missing events in both directions. Cost is
// ~O(|Δ|) symbols however large the stores are; an undecodable stream
// (past MaxSymbols) falls back to the snapshot exchange.
func (r *Reconciler) ratelessSession(p Pair) (int, error) {
	r.bufA = p.Primary.AppendDigests(r.bufA[:0])
	r.bufB = p.Replica.AppendDigests(r.bufB[:0])
	enc := NewEncoder(r.bufA)
	dec := NewDecoder(r.bufB)
	batch := r.cfg.firstBatch()
	var diff Diff
	for {
		n := batch
		if rem := r.cfg.maxSymbols() - dec.Received(); n > rem {
			n = rem
		}
		for i := 0; i < n; i++ {
			dec.Add(enc.Next())
		}
		if err := r.unicast(p.Primary.Node(), p.Replica.Node(), frameBytes(n)); err != nil {
			return 0, err
		}
		r.symbols += uint64(n)
		if d, ok := dec.Decode(); ok {
			diff = d
			break
		}
		if dec.Received() >= r.cfg.maxSymbols() {
			r.fallbacks++
			return r.snapshotSession(p)
		}
		if batch < r.cfg.maxBatch() {
			batch *= 2
			if batch > r.cfg.maxBatch() {
				batch = r.cfg.maxBatch()
			}
		}
	}
	return r.transfer(p, diff)
}

// transfer moves a decoded symmetric difference: the replica requests
// its missing events by digest and the primary ships them, then the
// replica pushes its primary-missing events back.
func (r *Reconciler) transfer(p Pair, diff Diff) (int, error) {
	moved := 0
	if len(diff.Remote) > 0 {
		if err := r.unicast(p.Replica.Node(), p.Primary.Node(), digestBytes(len(diff.Remote))); err != nil {
			return moved, err
		}
		n, err := r.ship(p.Primary, p.Replica, diff.Remote)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	if len(diff.Local) > 0 {
		n, err := r.ship(p.Replica, p.Primary, diff.Local)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// ship fetches the events behind digests from one side, pays for their
// transfer, and inserts them on the other.
func (r *Reconciler) ship(from, to Store, digests []uint64) (int, error) {
	evs := r.eventBuf[:0]
	for _, d := range digests {
		if e, ok := from.Fetch(d); ok {
			evs = append(evs, e)
		}
	}
	r.eventBuf = evs
	if len(evs) == 0 {
		return 0, nil
	}
	k := len(evs[0].Values)
	if err := r.unicast(from.Node(), to.Node(), dcs.ReplyBytes(k, len(evs))); err != nil {
		return 0, err
	}
	for _, e := range evs {
		to.Insert(e)
	}
	return len(evs), nil
}

// snapshotSession is the naive baseline: the primary ships its entire
// store to the replica, which applies what it lacks and pushes its own
// surplus back. Cost grows with store size regardless of how little
// actually differs.
func (r *Reconciler) snapshotSession(p Pair) (int, error) {
	r.bufA = p.Primary.AppendDigests(r.bufA[:0])
	r.bufB = p.Replica.AppendDigests(r.bufB[:0])
	aSet := make(map[uint64]bool, len(r.bufA))
	aUniq := r.bufA[:0]
	for _, d := range r.bufA {
		if !aSet[d] {
			aSet[d] = true
			aUniq = append(aUniq, d)
		}
	}
	bSet := make(map[uint64]bool, len(r.bufB))
	for _, d := range r.bufB {
		bSet[d] = true
	}

	// The full primary store travels even when nothing differs. The
	// deduped slice, not the set, drives enumeration so apply order stays
	// deterministic.
	evs := r.eventBuf[:0]
	for _, d := range aUniq {
		if e, ok := p.Primary.Fetch(d); ok {
			evs = append(evs, e)
		}
	}
	r.eventBuf = evs
	k := 0
	if len(evs) > 0 {
		k = len(evs[0].Values)
	}
	if err := r.unicast(p.Primary.Node(), p.Replica.Node(), dcs.ReplyBytes(k, len(evs))); err != nil {
		return 0, err
	}
	moved := 0
	for _, e := range evs {
		if !bSet[Digest(e)] {
			p.Replica.Insert(e)
			moved++
		}
	}

	// Replica-only surplus goes back.
	var back []uint64
	for _, d := range r.bufB {
		if !aSet[d] {
			aSet[d] = true // dedup duplicates in bufB
			back = append(back, d)
		}
	}
	if len(back) > 0 {
		n, err := r.ship(p.Replica, p.Primary, back)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// PairInSync reports whether both sides of a pair hold identical event
// sets (by digest).
func PairInSync(p Pair) bool {
	return pairDivergence(p) == 0
}

func pairDivergence(p Pair) int {
	a := map[uint64]bool{}
	for _, d := range p.Primary.AppendDigests(nil) {
		a[d] = true
	}
	b := map[uint64]bool{}
	for _, d := range p.Replica.AppendDigests(nil) {
		b[d] = true
	}
	diff := 0
	for d := range a {
		if !b[d] {
			diff++
		}
	}
	for d := range b {
		if !a[d] {
			diff++
		}
	}
	return diff
}

// Divergence sums the symmetric-difference sizes across every pair of
// every source — 0 means all replicas are in sync.
func Divergence(srcs ...PairSource) int {
	total := 0
	for _, src := range srcs {
		for _, p := range src.ReplicaPairs() {
			total += pairDivergence(p)
		}
	}
	return total
}

// Converged reports whether every replica pair is in sync.
func Converged(srcs ...PairSource) bool { return Divergence(srcs...) == 0 }
