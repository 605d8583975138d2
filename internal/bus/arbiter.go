package bus

import (
	"sync"
	"sync/atomic"
)

// Arbiter grants bus mastership under a pluggable Discipline. A single
// Arbiter may be shared by several buses (Config.Arbiter): in a
// multi-bus hierarchy (the §6 extension, internal/hierarchy), sharing
// one arbiter makes a cluster bridge's nested transactions — a local
// miss fanning out to the global bus, a global invalidation fanning
// into a cluster — trivially deadlock-free, while each bus still
// accounts its own occupancy for the timing model.
//
// The arbiter is also the home of transaction identity: every executed
// transaction draws a TxID here, so IDs are unique and monotonic
// across all buses serialising through the same arbiter — the stable
// edge labels the causal analyzer (internal/obs/causal) joins grant,
// abort, recovery and completion events on.
type Arbiter struct {
	mu arbMutex
	// txSeq allocates transaction ids (first id is 1; 0 = "none").
	txSeq atomic.Uint64
	// txBase/txStride namespace the ids this arbiter allocates. A
	// standalone arbiter uses (0, 1): ids 1, 2, 3, … An interleaved
	// fabric gives shard i of N the pair (i, N), so ids remain unique
	// and monotonic across shards without any cross-shard coordination,
	// and a tx's home shard is recoverable as TxID % N.
	txBase, txStride uint64
	// lastTx is the most recently completed transaction — the one a
	// newly granted master was blocked behind.
	lastTx atomic.Uint64
}

// NewArbiter creates a shareable arbiter granting in FCFS order.
func NewArbiter() *Arbiter { return &Arbiter{} }

// newShardArbiter creates the arbiter for shard i of an n-way
// interleaved fabric: ids are i + n, i + 2n, i + 3n, … — nonzero,
// strictly increasing, disjoint between shards.
func newShardArbiter(i, n int) *Arbiter {
	return &Arbiter{txBase: uint64(i), txStride: uint64(n)}
}

// nextTxID allocates the next transaction id in this arbiter's
// namespace.
func (a *Arbiter) nextTxID() uint64 {
	seq := a.txSeq.Add(1)
	if a.txStride == 0 {
		return seq
	}
	return a.txBase + a.txStride*seq
}

// SetDiscipline installs the grant order. Nil (the default) grants in
// strict arrival order, the pre-Discipline ticket-lock behaviour.
// Configuration time only: it must not race with traffic.
func (a *Arbiter) SetDiscipline(d Discipline) { a.mu.disc = d }

// Discipline returns the installed grant order (nil = FCFS).
func (a *Arbiter) Discipline() Discipline { return a.mu.disc }

// Pending returns the arbitration queue occupancy right now: the
// current bus master plus queued contenders (0 when the bus is idle).
// Safe from any goroutine; the live telemetry gauges poll it at scrape
// time rather than making the hot path publish a sample per grant.
func (a *Arbiter) Pending() int { return a.mu.pending() }

// arbWaiter is one parked contender. Its wake channel has room for the
// one grant it will receive, so Unlock never blocks handing it over,
// and the waiter is used again for a later wait (arbMutex.free).
type arbWaiter struct {
	w  Waiter
	ch chan struct{}
	// next links the arbiter's free list.
	next *arbWaiter
}

// arbMutex is the grant machinery: a mutual-exclusion lock whose wake
// order is delegated to a Discipline. With no discipline (or fcfs) it
// is exactly a ticket lock — waiters acquire in strict arrival order,
// which keeps the concurrent engine's interleavings reproducible
// enough to reason about and preserves the pre-refactor semantics.
type arbMutex struct {
	mu     sync.Mutex
	locked bool
	// tickets is the arrival counter; every parked waiter draws one.
	tickets int64
	// disc orders wakeups; nil = arrival order.
	disc    Discipline
	waiters []*arbWaiter
	// granted is the waiter the lock was last handed to, while its
	// holder has the lock; the holder's Unlock puts it on the free list,
	// since by then the holder has taken its grant off the channel.
	granted *arbWaiter
	free    *arbWaiter
}

// Lock blocks until mastership is granted. board identifies the
// requester to the discipline; internal lockers pass -1.
func (m *arbMutex) Lock(board int) {
	m.mu.Lock()
	if !m.locked && len(m.waiters) == 0 {
		m.locked = true
		if m.disc != nil {
			m.disc.Granted(board)
		}
		m.mu.Unlock()
		return
	}
	w := m.free
	if w != nil {
		m.free = w.next
	} else {
		w = &arbWaiter{ch: make(chan struct{}, 1)}
	}
	w.w = Waiter{Board: board, Ticket: m.tickets}
	m.tickets++
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	<-w.ch
}

// Unlock releases mastership, granting it directly to the waiter the
// discipline ranks first (no barging: a releasing-and-re-acquiring
// master queues behind every current waiter, as in the Futurebus
// fairness mode). Losing waiters age by one skip.
func (m *arbMutex) Unlock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.granted; g != nil {
		g.next, m.free, m.granted = m.free, g, nil
	}
	if len(m.waiters) == 0 {
		m.locked = false
		return
	}
	best := 0
	bestKey := m.key(m.waiters[0].w)
	for i := 1; i < len(m.waiters); i++ {
		if k := m.key(m.waiters[i].w); k < bestKey {
			best, bestKey = i, k
		}
	}
	winner := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	for _, w := range m.waiters {
		w.w.Skips++
	}
	if m.disc != nil {
		m.disc.Granted(winner.w.Board)
	}
	// The lock transfers to the winner without ever being observed free.
	m.granted = winner
	winner.ch <- struct{}{}
}

func (m *arbMutex) key(w Waiter) int64 {
	if m.disc == nil {
		return w.Ticket
	}
	return m.disc.Key(w)
}

// pending returns the current holder plus queued waiters. A waiter is
// parked only after the caller read its arbitration-wait start clock,
// so pending > 1 proves a contender's wait measurement has begun
// (deterministic test hook).
func (m *arbMutex) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.waiters)
	if m.locked {
		n++
	}
	return n
}
