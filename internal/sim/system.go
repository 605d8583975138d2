// Package sim assembles complete Futurebus systems — processors with
// policy-driven caches, uncached I/O masters, shared memory, the bus —
// and drives them with synthetic workloads under two engines: a
// deterministic discrete-event engine for reproducible experiments, and
// a concurrent engine with one goroutine per processor that exercises
// the same protocol machinery under real interleavings.
package sim

import (
	"fmt"
	"strings"
	"sync/atomic"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/check"
	"futurebus/internal/faults"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/protocols"
	"futurebus/internal/workload"
)

// Board is a bus master the engines drive with references: a cached
// processor or an uncached I/O master.
type Board interface {
	ID() int
	Read(addr bus.Addr, word int) (uint32, error)
	Write(addr bus.Addr, word int, val uint32) error
	// UsesBusNext predicts whether the given access needs the bus (for
	// event ordering in the deterministic engine).
	UsesBusNext(addr bus.Addr, write bool) bool
	// Stall returns cumulative simulated bus time this board has spent
	// (its Stats().StallNanos, BS recovery pushes for others included).
	// The deterministic engine calls it twice per reference, so it must
	// be O(1) and take no directory lock.
	Stall() int64
	// Describe names the board's protocol.
	Describe() string
}

// BoardSpec configures one board. Protocol is a protocols registry name
// or one of the pseudo-protocols "uncached" / "uncached-broadcast".
type BoardSpec struct {
	Protocol string
	// SectorSubs, when non-zero, makes the board a §5.1 sector cache
	// with that many sub-sectors per tag (cache.Config.SubSectors; its
	// data capacity is CacheSets × CacheWays × SectorSubs × line size).
	SectorSubs int
	// Fault names an internal/faults wrapper to inject into this
	// board's policy — a deliberate protocol bug for testing the
	// runtime invariant monitor. Empty = correct policy. fbsim exposes
	// it as the "protocol+fault" spec syntax.
	Fault string
}

// MaxLineSize bounds Config.LineSize, in bytes. Every cache allocates
// its lines' data up front, so the bound also bounds a cache's size.
const MaxLineSize = 1024

// CheckLineSize validates a system line size: a positive multiple of
// the 4-byte word, at most MaxLineSize.
func CheckLineSize(n int) error {
	if n <= 0 || n%4 != 0 || n > MaxLineSize {
		return fmt.Errorf("sim: line size %d: must be a positive multiple of 4 bytes, at most %d", n, MaxLineSize)
	}
	return nil
}

// Config assembles a System. New validates it and returns an error for
// a line size CheckLineSize rejects, or a cache geometry
// cache.CheckGeometry rejects.
type Config struct {
	// LineSize in bytes; 0 = bus.DefaultLineSize. §5.1: one standard
	// line size for the whole system.
	LineSize int
	// CacheSets and CacheWays give every cache's geometry; 0 = 64 sets,
	// 2 ways.
	CacheSets, CacheWays int
	// Timing overrides the bus cost model (zero = default).
	Timing bus.Timing
	// Boards lists the masters, in bus-id order.
	Boards []BoardSpec
	// Shadow enables golden-image tracking for the consistency checker
	// (small overhead per write).
	Shadow bool
	// Paranoid enables per-response class validation on the bus
	// (bus.Config.Paranoid).
	Paranoid bool
	// Obs, when non-nil, instruments the whole system: the bus, every
	// cache and memory emit structured events into it. Nil = tracing
	// off (the fast path).
	Obs *obs.Recorder
	// ObsID tags the bus segment in emitted events (0 for a single-bus
	// system; hierarchies number clusters 1..N). An interleaved fabric
	// numbers its shards ObsID..ObsID+Shards-1.
	ObsID int
	// Shards selects the fabric: 1 (or 0) builds the classic single
	// Futurebus; N>1 builds an address-interleaved backplane of N
	// independent buses, each with its own arbiter and memory module.
	// The interleave granularity is the largest SectorSubs among the
	// boards (1 if none), so a whole sector is always homed on one
	// shard; every board's SectorSubs must divide it.
	Shards int
	// Tenure selects the bus-tenure policy: "" or "atomic" (one grant
	// covers address, data and memory service), or "split" (address and
	// data phases are decoupled grants; see bus.TenurePolicy).
	Tenure string
	// PendingTable bounds the split-mode per-shard pending-transaction
	// table (0 = bus.DefaultPendingTable). Ignored in atomic mode.
	PendingTable int
	// Discipline names the arbitration grant order per shard: "" or
	// "fcfs", "rr", "priority", "bounded" (see bus.NewDiscipline).
	Discipline string
}

// System is an assembled machine.
type System struct {
	Bus    bus.Fabric
	Memory *memory.Sharded
	Boards []Board
	// Caches lists the cached boards, plain and sector (subset of
	// Boards), for the checker and reports.
	Caches []*cache.Cache
	Shadow *check.Shadow
	// Obs is the recorder the system was built with (nil if untraced).
	Obs *obs.Recorder

	// refsDone counts references completed by any engine — the only
	// engine-side progress counter safe to read mid-run (LiveMetrics).
	refsDone atomic.Int64

	// split records whether the fabric runs split-transaction tenures —
	// the deterministic engine switches its occupancy accounting on it.
	split bool
	// disc is the configured arbitration-discipline factory (nil =
	// FCFS); the deterministic engine instantiates one per shard to
	// order its deferred-access queue the same way the concurrent
	// engine's arbiter does.
	disc bus.DisciplineFactory
}

// Split reports whether the system runs split-transaction bus tenures.
func (s *System) Split() bool { return s.split }

// noteRef records one completed reference for live progress reporting.
func (s *System) noteRef() { s.refsDone.Add(1) }

// RefsDone returns how many references the engines have completed so
// far. Safe from any goroutine at any time.
func (s *System) RefsDone() int64 { return s.refsDone.Load() }

// cachedBoard adapts cache.Cache to Board.
type cachedBoard struct {
	*cache.Cache
	name string
}

func (b *cachedBoard) Read(addr bus.Addr, word int) (uint32, error) { return b.ReadWord(addr, word) }
func (b *cachedBoard) Write(addr bus.Addr, word int, val uint32) error {
	return b.WriteWord(addr, word, val)
}
func (b *cachedBoard) UsesBusNext(addr bus.Addr, write bool) bool { return b.WouldUseBus(addr, write) }
func (b *cachedBoard) Describe() string                           { return b.name }

// uncachedBoard adapts cache.Uncached to Board.
type uncachedBoard struct {
	*cache.Uncached
	name string
}

func (b *uncachedBoard) Read(addr bus.Addr, word int) (uint32, error) { return b.ReadWord(addr, word) }
func (b *uncachedBoard) Write(addr bus.Addr, word int, val uint32) error {
	return b.WriteWord(addr, word, val)
}
func (b *uncachedBoard) UsesBusNext(bus.Addr, bool) bool { return true }
func (b *uncachedBoard) Describe() string                { return b.name }

// New builds a system from the config.
func New(cfg Config) (*System, error) {
	if len(cfg.Boards) == 0 {
		return nil, fmt.Errorf("sim: no boards configured")
	}
	lineSize := cfg.LineSize
	if lineSize == 0 {
		lineSize = bus.DefaultLineSize
	}
	if err := CheckLineSize(lineSize); err != nil {
		return nil, err
	}
	if cfg.CacheSets == 0 {
		cfg.CacheSets = 64
	}
	if cfg.CacheWays == 0 {
		cfg.CacheWays = 2
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 {
		return nil, fmt.Errorf("sim: invalid shard count %d", cfg.Shards)
	}
	// The interleave granularity is the largest sector size on any
	// board, so every sector (and its write-backs) is homed on one
	// shard; smaller sector sizes must divide it (cache.CheckGeometry).
	gran := 1
	for _, spec := range cfg.Boards {
		if spec.SectorSubs > gran {
			gran = spec.SectorSubs
		}
	}
	for i, spec := range cfg.Boards {
		if uncached(spec.Protocol) {
			continue
		}
		geo := cache.Config{Sets: cfg.CacheSets, Ways: cfg.CacheWays, SubSectors: spec.SectorSubs}
		if err := cache.CheckGeometry(geo, shards, gran); err != nil {
			return nil, fmt.Errorf("sim: board %d: %w", i, err)
		}
	}
	mem := memory.NewSharded(lineSize, shards, gran)
	if cfg.Obs != nil {
		mem.SetObs(cfg.Obs)
	}
	tenure, err := bus.NewTenure(cfg.Tenure, cfg.PendingTable)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var disc bus.DisciplineFactory
	if cfg.Discipline != "" {
		if disc, err = bus.NewDiscipline(cfg.Discipline); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	busCfg := bus.Config{
		LineSize: lineSize, Timing: cfg.Timing, Paranoid: cfg.Paranoid,
		Obs: cfg.Obs, ObsID: cfg.ObsID,
		Tenure: tenure, Discipline: disc,
	}
	var b bus.Fabric
	if shards == 1 {
		b = bus.New(mem.Shard(0), busCfg)
	} else {
		b = bus.NewInterleaved(mem.Ports(), bus.InterleavedConfig{
			Config: busCfg, Shards: shards, Granularity: gran,
		})
	}
	sys := &System{Bus: b, Memory: mem, Obs: cfg.Obs, split: tenure.TableSize() > 0, disc: disc}
	discName := cfg.Discipline
	if discName == "" {
		discName = "fcfs" // the bus default grant order
	}
	cfg.Obs.MarkEpoch(cfg.ObsID, discName)
	if cfg.Shadow {
		sys.Shadow = check.NewShadow(lineSize)
	}
	var onWrite func(bus.Addr, int, uint32)
	if sys.Shadow != nil {
		onWrite = sys.Shadow.OnWrite
	}

	for i, spec := range cfg.Boards {
		switch {
		case uncached(spec.Protocol):
			u := cache.NewUncached(i, b, spec.Protocol == "uncached-broadcast", onWrite)
			sys.Boards = append(sys.Boards, &uncachedBoard{Uncached: u, name: spec.Protocol})
		default:
			p, err := protocols.New(spec.Protocol)
			if err != nil {
				return nil, fmt.Errorf("sim: board %d: %w", i, err)
			}
			if p, err = faults.Wrap(spec.Fault, p); err != nil {
				return nil, fmt.Errorf("sim: board %d: %w", i, err)
			}
			c := cache.New(i, b, p, cache.Config{
				Sets: cfg.CacheSets, Ways: cfg.CacheWays,
				SubSectors: spec.SectorSubs, OnWrite: onWrite,
			})
			name := spec.Protocol
			if spec.SectorSubs > 0 {
				name = fmt.Sprintf("%s/sector%d", spec.Protocol, spec.SectorSubs)
			}
			sys.Caches = append(sys.Caches, c)
			sys.Boards = append(sys.Boards, &cachedBoard{Cache: c, name: name})
		}
	}
	return sys, nil
}

// uncached reports whether a board protocol names an uncached master.
func uncached(protocol string) bool {
	return protocol == "uncached" || protocol == "uncached-broadcast"
}

// Homogeneous returns a Config with n identical cached boards.
func Homogeneous(protocol string, n int) Config {
	boards := make([]BoardSpec, n)
	for i := range boards {
		boards[i] = BoardSpec{Protocol: protocol}
	}
	return Config{Boards: boards}
}

// Checker returns a consistency checker over the system. Run it only
// when the system is quiesced.
func (s *System) Checker() *check.Checker {
	sources := make([]check.LineSource, 0, len(s.Caches))
	for _, c := range s.Caches {
		sources = append(sources, c)
	}
	return &check.Checker{Caches: sources, Memory: s.Memory, Shadow: s.Shadow}
}

// Describe summarises the board mix ("4×moesi" or "2×moesi+1×dragon").
func (s *System) Describe() string {
	counts := make(map[string]int)
	var order []string
	for _, b := range s.Boards {
		if counts[b.Describe()] == 0 {
			order = append(order, b.Describe())
		}
		counts[b.Describe()]++
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%d×%s", counts[name], name)
	}
	return strings.Join(parts, "+")
}

// WordsPerLine returns the number of 32-bit words per line.
func (s *System) WordsPerLine() int { return s.Bus.LineSize() / 4 }

// Generators builds one workload generator per board from a factory.
func (s *System) Generators(f func(proc int) workload.Generator) []workload.Generator {
	gens := make([]workload.Generator, len(s.Boards))
	for i := range gens {
		gens[i] = f(i)
	}
	return gens
}
