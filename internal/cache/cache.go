// Package cache implements a set-associative snooping cache for the
// simulated Futurebus. The cache is policy-driven: every local event
// (processor read/write, replacement pass/flush) and every snooped bus
// event is resolved by a core.Policy choosing an action from its
// protocol table, so the same engine runs MOESI, Berkeley, Dragon,
// Write-Once, Illinois, Firefly and write-through protocols, in plain
// and §5.1 sector organisations alike (Config.SubSectors).
//
// Concurrency contract: each cache serves exactly one processor. The
// directory is guarded per fabric shard: under the interleave layout
// constraint (see CheckGeometry) every set is homed on exactly one shard,
// so shard s's snoop sweep and shard t's can pin their slices of the
// directory concurrently. The processor side locks one shard's mutex
// for local work and never holds it while waiting for the bus; the bus
// side (Query/Commit/Cancel) holds it for the duration of the address
// cycle, mirroring how a Futurebus address handshake pins every unit's
// directory (§2.1). On a single bus this degenerates to the one-mutex
// contract the package always had.
//
// A cache that one goroutine drives alone — processor side and every
// snoop — may be marked single-owner (SetSingleOwner); while it is, the
// shard mutexes are skipped. The deterministic engine marks its caches
// for the length of a run.
//
// Every cache keeps its fabric's holder record (bus.Holder): each
// valid↔invalid transition of a line is reported to the line's home
// shard, under that shard's bus tenure, so address cycles skip the
// cache for lines it does not hold.
package cache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// Config parameterises a cache.
type Config struct {
	// Sets and Ways give the organisation; capacity is
	// Sets × Ways × SubSectors × line size.
	Sets, Ways int
	// SubSectors, above 1, makes the cache the §5.1 sector organisation
	// ([Hill84]): one way's address tag and LRU position cover a sector
	// of SubSectors consecutive lines (the transfer sub-sectors), while
	// each line keeps its own consistency state and data and is fetched,
	// snooped and pushed on its own — "consistency status … [is]
	// necessarily associated with the transfer subsector". A sector miss
	// evicts a whole resident sector. 0 or 1 is a plain cache; at most
	// MaxSubSectors.
	SubSectors int
	// OnWrite, when non-nil, observes every processor write the cache
	// applies, in the global per-line modification order (it is called
	// at the point the write becomes visible). The consistency checker
	// uses it to maintain the golden image.
	OnWrite func(addr bus.Addr, wordIdx int, val uint32)
	// OnSnoopChange, when non-nil, observes every state or data change
	// a snooped bus event caused (called with the bus held and the
	// directory locked). A multi-bus cluster bridge uses it to
	// propagate foreign invalidations and updates into its cluster
	// (internal/hierarchy).
	OnSnoopChange func(addr bus.Addr, from, to core.State, dataChanged bool)
	// OnEvict, when non-nil, runs before a valid line is evicted for
	// capacity, with the bus held and the directory unlocked. A bridge
	// uses it to maintain inclusion: no cluster cache may keep a line
	// its bridge no longer tracks.
	OnEvict func(addr bus.Addr) error
	// Regions optionally selects a different policy per address range —
	// §3.4's selective use of the class: "a given cache can make some
	// pages copy back, some write through, and some uncacheable (as
	// with the Fairchild CLIPPER)". Addresses outside every region use
	// the cache's main policy. Regions must not overlap.
	Regions []Region
}

// Region binds one line-address range [Start, End) to a policy.
type Region struct {
	Start, End bus.Addr
	// Policy governs accesses in the range. A NonCaching-variant
	// policy makes the range uncacheable: reads fetch without
	// retaining, writes go past the cache.
	Policy core.Policy
}

// policyFor returns the policy governing an address (§3.4 selective
// use). Safe without c.mu: regions are fixed at construction.
func (c *Cache) policyFor(addr bus.Addr) core.Policy {
	if i := c.region(addr); i >= 0 {
		return c.cfg.Regions[i].Policy
	}
	return c.policy
}

// protoFor returns the name of the policy governing an address, for
// the state events it emits.
func (c *Cache) protoFor(addr bus.Addr) obs.Name {
	if i := c.region(addr); i >= 0 {
		return c.regionProtos[i]
	}
	return c.proto
}

// region returns the index of the region holding addr, or -1.
func (c *Cache) region(addr bus.Addr) int {
	for i := range c.cfg.Regions {
		r := &c.cfg.Regions[i]
		if addr >= r.Start && addr < r.End {
			return i
		}
	}
	return -1
}

// line is one line of a set. A set holds Ways × SubSectors lines, way
// w being set[w*SubSectors : (w+1)*SubSectors]. A way's tag is its
// lines' addresses and its LRU position the latest lastUse among them
// (see wayUse). slot is the line's index in the cache's slab of lines,
// and so of its data (see lineData).
type line struct {
	addr    bus.Addr
	lastUse uint64
	slot    int32
	state   core.State
}

// Cache is one snooping cache attached to a fabric (a single bus or an
// interleaved multi-bus backplane; the cache snoops every shard).
type Cache struct {
	id     int
	bus    bus.Fabric
	policy core.Policy
	cfg    Config
	// obs is inherited from the fabric at construction: one recorder
	// instruments the whole fabric. Nil obs = tracing off.
	obs *obs.Recorder
	// nshards/gran mirror the fabric's interleave parameters so the
	// hot path maps an address to its shard without an interface call.
	nshards, gran uint64
	// subs is the number of lines a way's tag covers: 1 for a plain
	// cache, Config.SubSectors for a sector cache.
	subs int

	// shards holds the per-fabric-shard mutable state. lines is the
	// slab of every line, set s of the nsets being lines[s*setLines :
	// (s+1)*setLines], and every line of a set is homed on one shard,
	// whose cacheShard guards the set. data is the slab of the lines'
	// data, lineSize bytes each.
	shards   []cacheShard
	lines    []line
	nsets    uint64
	setLines int
	data     []byte
	lineSize int

	// stall is Stats.StallNanos, kept outside the sharded counters so
	// Stall reads it with one atomic load. noteStall adds to it with the
	// shard lock held, so a Stats snapshot stays consistent.
	stall atomic.Int64

	// single marks the cache single-owner: one goroutine drives it, so
	// lock and unlock skip the shard mutexes. See SetSingleOwner.
	single bool

	// proto names the policy, and regionProtos each region's, for the
	// state events the cache emits.
	proto        obs.Name
	regionProtos []obs.Name
}

// cacheShard is one fabric shard's slice of the cache: the directory
// lock for the sets homed there, plus the LRU clock and counters those
// sets use (sharding them keeps shard sweeps write-independent).
type cacheShard struct {
	mu    sync.Mutex
	clock uint64
	stats Stats
	// line is where a read that retains nothing (an uncacheable "I,R"
	// fill) lands. Sized on first use; only the master holding this
	// shard's bus tenure touches it.
	line []byte
	// held is this cache's handle on the shard's holder record.
	held bus.Presence
}

// Stats counts cache-side activity.
type Stats struct {
	// Processor-side.
	Reads, Writes           int64
	ReadHits, WriteHits     int64
	ReadMisses, WriteMisses int64
	WriteUpgrades           int64 // write hits that needed the bus (S/O)
	Passes, Flushes         int64
	Replacements            int64 // ways evicted: a whole sector in a sector cache
	DirtyEvictions          int64 // lines written back by replacement
	// Bus-side (snooped).
	SnoopHits             int64
	InvalidationsReceived int64
	UpdatesReceived       int64
	InterventionsSupplied int64
	WritesCaptured        int64
	AbortsIssued          int64
	// StallNanos is simulated time this cache's processor spent on bus
	// transactions it issued, including the BS recovery pushes it
	// performed for other masters.
	StallNanos int64
	// Transitions counts line state changes, indexed [from][to] in
	// core.State order. Identity transitions (a Table 1/2 action that
	// re-enters the current state) are not recorded; installs appear
	// as Invalid→X and invalidations as X→Invalid.
	Transitions [5][5]int64
}

// Add accumulates other into s, field by field — including the
// transition matrix — so aggregation code cannot silently drop a
// counter when one is added here.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadHits += other.ReadHits
	s.WriteHits += other.WriteHits
	s.ReadMisses += other.ReadMisses
	s.WriteMisses += other.WriteMisses
	s.WriteUpgrades += other.WriteUpgrades
	s.Passes += other.Passes
	s.Flushes += other.Flushes
	s.Replacements += other.Replacements
	s.DirtyEvictions += other.DirtyEvictions
	s.SnoopHits += other.SnoopHits
	s.InvalidationsReceived += other.InvalidationsReceived
	s.UpdatesReceived += other.UpdatesReceived
	s.InterventionsSupplied += other.InterventionsSupplied
	s.WritesCaptured += other.WritesCaptured
	s.AbortsIssued += other.AbortsIssued
	s.StallNanos += other.StallNanos
	for from := range s.Transitions {
		for to := range s.Transitions[from] {
			s.Transitions[from][to] += other.Transitions[from][to]
		}
	}
}

// home maps an address to the fabric shard that serialises it — and
// therefore to the cacheShard guarding its set.
func (c *Cache) home(addr bus.Addr) int {
	if c.nshards == 1 {
		return 0
	}
	return int((uint64(addr) / c.gran) % c.nshards)
}

// shard returns the cacheShard guarding addr's set.
func (c *Cache) shard(addr bus.Addr) *cacheShard { return &c.shards[c.home(addr)] }

// setState records a state change on a line, tagging the emitted
// event with why it happened. Callers hold sh.mu, where sh guards
// l.addr.
func (c *Cache) setState(sh *cacheShard, l *line, next core.State, cause obs.Cause) {
	c.setStateTx(sh, l, next, cause, 0)
}

// setStateTx is setState with the causing bus transaction's id, so the
// coherence analyzer can group a write with the fan-out of state
// changes it triggered (txid 0 = no bus transaction: a silent local
// transition).
func (c *Cache) setStateTx(sh *cacheShard, l *line, next core.State, cause obs.Cause, txid uint64) {
	if l.state == next {
		return
	}
	sh.stats.Transitions[l.state][next]++
	if rec := c.obs; rec != nil {
		rec.Emit(&obs.Event{
			TS: rec.Clock(), Kind: obs.KindState, Bus: int32(c.bus.SegmentID(l.addr)), Proc: int32(c.id),
			Addr: uint64(l.addr), From: l.state, To: next, Cause: cause,
			Proto: c.protoFor(l.addr), TxID: txid,
		})
	}
	c.place(sh, l, next)
}

// place sets a line's state, reporting a valid↔invalid change to the
// holder record. Callers hold sh, which guards l.addr, and l.addr's bus
// tenure whenever the line's validity changes.
func (c *Cache) place(sh *cacheShard, l *line, next core.State) {
	if l.state.Valid() != next.Valid() {
		sh.held.Note(l.addr, next.Valid())
	}
	l.state = next
}

// snoopCause names the Table 2 column a snooped transaction presented,
// for the Cause of the resulting state event — distinguishing an
// invalidation received from a read-for-ownership (CA+IM) from one
// received from a plain write (IM) or a broadcast write (IM+BC).
func snoopCause(tx *bus.Transaction) obs.Cause {
	if tx.Cmd == bus.CmdClean {
		return obs.CauseSnoopClean
	}
	switch tx.Event() {
	case core.BusCacheRead:
		return obs.CauseSnoopCacheRead
	case core.BusCacheRFO:
		return obs.CauseSnoopCacheRFO
	case core.BusPlainRead:
		return obs.CauseSnoopRead
	case core.BusCacheBroadcastWrite:
		return obs.CauseSnoopCacheBcastWrite
	case core.BusPlainWrite:
		return obs.CauseSnoopWrite
	case core.BusPlainBroadcastWrite:
		return obs.CauseSnoopBcastWrite
	}
	return obs.CauseSnoop
}

// noteStall accounts simulated bus time this cache's processor spent
// on a transaction it issued, and emits the stall span. Callers hold
// the shard lock guarding addr.
func (c *Cache) noteStall(sh *cacheShard, addr bus.Addr, cost int64) {
	c.stall.Add(cost)
	if rec := c.obs; rec != nil {
		// Split-mode stalls include off-bus time, which can exceed the
		// occupancy clock's advance; clamp the span start at 0.
		ts := rec.Clock() - cost
		if ts < 0 {
			ts = 0
		}
		rec.Emit(&obs.Event{
			TS: ts, Dur: cost, Kind: obs.KindStall,
			Bus: int32(c.bus.SegmentID(addr)), Proc: int32(c.id), Addr: uint64(addr),
		})
	}
}

// lock takes a shard's directory lock; unlock releases it. Both are
// no-ops while the cache is single-owner.
func (c *Cache) lock(sh *cacheShard) {
	if !c.single {
		sh.mu.Lock()
	}
}

func (c *Cache) unlock(sh *cacheShard) {
	if !c.single {
		sh.mu.Unlock()
	}
}

// lockAll takes every shard lock in shard order (whole-directory
// operations: Stats, ForEachLine). The matching
// unlockAll releases them.
func (c *Cache) lockAll() {
	for i := range c.shards {
		c.lock(&c.shards[i])
	}
}

func (c *Cache) unlockAll() {
	for i := range c.shards {
		c.unlock(&c.shards[i])
	}
}

// SetSingleOwner marks the cache as driven by one goroutine alone (on)
// or releases the mark (off). While it is marked, no other goroutine may
// touch the cache — its processor side, its snoops through the fabric,
// or its Stats — and the directory runs without its shard mutexes.
// Change the mark only while the cache is quiescent, with no shard lock
// held.
func (c *Cache) SetSingleOwner(on bool) { c.single = on }

// MaxSubSectors bounds Config.SubSectors: a 64-line sector already
// spans 2 KiB at the default 32-byte line.
const MaxSubSectors = 64

// CheckGeometry validates a cache organisation against a fabric's
// interleave parameters, its shard count and granularity in lines. Sets
// and Ways must be positive and SubSectors within 0..MaxSubSectors.
// On more than one shard every bus-tenure sequence the cache issues
// (miss fill + victim flushes, RMW, recovery push) must stay on one
// shard, which holds exactly when each set is homed on a single shard.
// Sets index sectors (lines, in a plain cache), so the granularity must
// be a whole number of sectors and Sets a multiple of that number ×
// shards. New panics on the error; sim.New returns it.
func CheckGeometry(cfg Config, shards, gran int) error {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.SubSectors < 0 || cfg.SubSectors > MaxSubSectors {
		return fmt.Errorf("cache: invalid geometry %d sets × %d ways × %d sub-sectors (sets and ways must be positive, sub-sectors 0..%d)",
			cfg.Sets, cfg.Ways, cfg.SubSectors, MaxSubSectors)
	}
	subs := max(cfg.SubSectors, 1)
	if shards > 1 && (gran%subs != 0 || cfg.Sets%(gran/subs*shards) != 0) {
		return fmt.Errorf(
			"cache: %d sets of %d-line sectors cannot interleave over %d shards at granularity %d (the granularity must be a multiple of the sector and sets a multiple of granularity/sector × shards, so each set is homed on one shard)",
			cfg.Sets, subs, shards, gran)
	}
	return nil
}

// New creates a cache and attaches it to the fabric as a snooper and
// holder (on every shard). The id must be unique among all bus
// masters. It panics on a geometry CheckGeometry rejects. The cache's
// lines, and their data, are allocated as one slab each.
func New(id int, b bus.Fabric, policy core.Policy, cfg Config) *Cache {
	if err := CheckGeometry(cfg, b.Shards(), b.Granularity()); err != nil {
		panic(err.Error())
	}
	subs := max(cfg.SubSectors, 1)
	c := &Cache{
		id: id, bus: b, policy: policy, cfg: cfg, obs: b.Recorder(),
		nshards: uint64(b.Shards()), gran: uint64(b.Granularity()), subs: subs,
	}
	c.proto = obs.NameOf(policy.Name())
	for _, r := range cfg.Regions {
		c.regionProtos = append(c.regionProtos, obs.NameOf(r.Policy.Name()))
	}
	c.shards = make([]cacheShard, c.nshards)
	c.nsets, c.setLines, c.lineSize = uint64(cfg.Sets), cfg.Ways*subs, b.LineSize()
	c.lines = make([]line, cfg.Sets*c.setLines)
	c.data = make([]byte, len(c.lines)*c.lineSize)
	for i := range c.lines {
		c.lines[i].slot = int32(i)
	}
	b.Attach(c)
	for i := range c.shards {
		c.shards[i].held = b.Shard(i).Presence(c)
	}
	return c
}

// HeldLines implements bus.Holder: the lines of the sets homed on one
// shard (CheckGeometry spreads the sets evenly over the shards).
func (c *Cache) HeldLines() int {
	return c.cfg.Sets * c.cfg.Ways * c.subs / int(c.nshards)
}

// Dynamic reports whether the cache's protocol, or that of any of its
// regions, draws its choices (core.Policy.Dynamic), so WouldUseBus can
// answer differently for an unchanged line state.
func (c *Cache) Dynamic() bool {
	if c.policy.Dynamic() {
		return true
	}
	for _, r := range c.cfg.Regions {
		if r.Policy.Dynamic() {
			return true
		}
	}
	return false
}

// ID returns the cache's bus master id.
func (c *Cache) ID() int { return c.id }

// LineSize returns the system line size the cache operates on.
func (c *Cache) LineSize() int { return c.lineSize }

// Policy returns the protocol the cache runs.
func (c *Cache) Policy() core.Policy { return c.policy }

// Stats returns a snapshot of the counters, summed over shards.
func (c *Cache) Stats() Stats {
	c.lockAll()
	defer c.unlockAll()
	var total Stats
	for i := range c.shards {
		total.Add(c.shards[i].stats)
	}
	total.StallNanos = c.stall.Load()
	return total
}

// Stall returns Stats().StallNanos — the cumulative simulated time this
// cache's processor has stalled on bus transactions, BS recovery pushes
// included — in O(1): one atomic load, no directory lock. Safe from any
// goroutine.
func (c *Cache) Stall() int64 { return c.stall.Load() }

// setFor maps a line address to its set and to the line's position in
// a way (always 0 in a plain cache, which indexes without dividing).
func (c *Cache) setFor(addr bus.Addr) ([]line, int) {
	base, i := c.setIndex(addr)
	return c.lines[base : base+c.setLines], i
}

// setIndex is setFor as the index of the set's first line in the slab.
func (c *Cache) setIndex(addr bus.Addr) (base, i int) {
	a := uint64(addr)
	if c.subs > 1 {
		a, i = a/uint64(c.subs), int(a%uint64(c.subs))
	}
	return int(a%c.nsets) * c.setLines, i
}

// lineData returns a line's data, its own lineSize bytes of the slab.
func (c *Cache) lineData(l *line) []byte {
	i := int(l.slot) * c.lineSize
	return c.data[i : i+c.lineSize : i+c.lineSize]
}

// lookup returns the valid line holding addr, or nil. Callers hold the
// shard lock guarding addr. It is kept small enough for the compiler to
// inline into every hit path.
func (c *Cache) lookup(addr bus.Addr) *line {
	base, i := c.setIndex(addr)
	for ; i < c.setLines; i += c.subs {
		if l := &c.lines[base+i]; l.addr == addr && l.state != core.Invalid {
			return l
		}
	}
	return nil
}

// touch updates the LRU clock for a line. Callers hold sh.mu, where sh
// guards l.addr (LRU only ever compares ways of one set, and a set is
// homed on one shard, so a per-shard clock orders everything it needs
// to).
func (c *Cache) touch(sh *cacheShard, l *line) {
	sh.clock++
	l.lastUse = sh.clock
}

// wayUse returns a way's LRU position, the latest use of any of its
// lines, and whether the way holds a tag. A plain way holds one while
// its line is valid; a sector way from its first claim on, since it
// keeps its tag until it is evicted.
func (c *Cache) wayUse(way []line) (uint64, bool) {
	if c.subs == 1 {
		return way[0].lastUse, way[0].state.Valid()
	}
	var use uint64
	for i := range way {
		use = max(use, way[i].lastUse)
	}
	return use, use > 0
}

// victim returns the way addr's line is to occupy, the line's slot in
// it, and whether the way must be evicted first: a way already tagged
// with addr's sector, else the first untagged way, else the least
// recently used way. Callers hold addr's shard lock. The victim shares
// addr's set, hence its home shard — a miss fill and its eviction
// pushes stay on the bus tenure already held.
func (c *Cache) victim(addr bus.Addr) (way []line, slot *line, evict bool) {
	set, si := c.setFor(addr)
	var free, lru []line
	var lruUse uint64
	for w := 0; w < len(set); w += c.subs {
		way := set[w : w+c.subs]
		use, tagged := c.wayUse(way)
		switch {
		case !tagged:
			if free == nil {
				free = way
			}
		case c.subs > 1 && way[si].addr == addr:
			return way, &way[si], false
		case lru == nil || use < lruUse:
			lru, lruUse = way, use
		}
	}
	if free != nil {
		return free, &free[si], false
	}
	return lru, &lru[si], true
}

// claim tags a way with addr's sector, every line taking its address
// in the sector, and makes it the set's most recently used way.
// Callers hold sh.mu, where sh guards addr.
func (c *Cache) claim(sh *cacheShard, way []line, slot *line, addr bus.Addr) {
	base := addr - addr%bus.Addr(c.subs)
	for i := range way {
		way[i].addr = base + bus.Addr(i)
	}
	c.touch(sh, slot)
}

// State returns the cache's state for a line (Invalid if absent).
func (c *Cache) State(addr bus.Addr) core.State {
	sh := c.shard(addr)
	c.lock(sh)
	defer c.unlock(sh)
	if l := c.lookup(addr); l != nil {
		return l.state
	}
	return core.Invalid
}

// Contains reports whether the cache holds the line in any valid state.
func (c *Cache) Contains(addr bus.Addr) bool { return c.State(addr).Valid() }

// ForEachLine visits every valid line with a copy of its data (used by
// the consistency checker). The cache is locked for the duration.
func (c *Cache) ForEachLine(fn func(addr bus.Addr, s core.State, data []byte)) {
	c.lockAll()
	defer c.unlockAll()
	for i := range c.lines {
		if l := &c.lines[i]; l.state.Valid() {
			fn(l.addr, l.state, append([]byte(nil), c.lineData(l)...))
		}
	}
}

// recentlyUsed reports whether l's way is not the least recently used
// tagged way of its set (the §5.2 notion of "quite recently used": the
// MRU way of a two-way set is recent, the LRU way is nearing
// replacement). Callers hold l.addr's shard lock.
func (c *Cache) recentlyUsed(l *line) bool {
	set, si := c.setFor(l.addr)
	var mine uint64
	for w := 0; w < len(set); w += c.subs {
		if &set[w+si] == l {
			mine, _ = c.wayUse(set[w : w+c.subs])
		}
	}
	for w := 0; w < len(set); w += c.subs {
		if use, tagged := c.wayUse(set[w : w+c.subs]); tagged && use < mine {
			return true
		}
	}
	return false
}

// WouldUseBus predicts whether an access would issue a bus transaction
// (a miss, or a write hit that must announce itself). The deterministic
// simulation engine uses it to order processors in time before
// executing their references; for dynamically-choosing policies the
// prediction is a heuristic (the policy may pick differently when the
// access runs).
func (c *Cache) WouldUseBus(addr bus.Addr, write bool) bool {
	sh := c.shard(addr)
	c.lock(sh)
	defer c.unlock(sh)
	event := core.LocalRead
	if write {
		event = core.LocalWrite
	}
	state := core.Invalid
	if l := c.lookup(addr); l != nil {
		state = l.state
	} else if !write {
		// A miss also needs the bus to evict a dirty victim; either
		// way it is a bus access.
		return true
	}
	action, ok := c.policyFor(addr).ChooseLocal(state, event)
	return !ok || action.NeedsBus()
}

// word reads a 32-bit little-endian word from a line buffer.
func word(data []byte, idx int) uint32 {
	return binary.LittleEndian.Uint32(data[idx*4:])
}

// putWord writes a 32-bit little-endian word into a line buffer.
func putWord(data []byte, idx int, v uint32) {
	binary.LittleEndian.PutUint32(data[idx*4:], v)
}

func (c *Cache) checkWord(wordIdx int) error {
	if wordIdx < 0 || (wordIdx+1)*4 > c.lineSize {
		return fmt.Errorf("cache %d: word %d outside %d-byte line", c.id, wordIdx, c.lineSize)
	}
	return nil
}
