package main

import (
	"math"
	"sort"

	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// scenario is one benchmark workload: the system it assembles, the
// engine that drives it, and the reference stream each board receives.
// The streams are generated here, from the benchmark's own seed, so a
// change to the program's workload package cannot change the inputs.
type scenario struct {
	name string
	// why is the one-line reason the workload was chosen; BENCHMARK.json
	// carries the same line.
	why                string
	boards             []sim.BoardSpec
	shards             int
	tenure, discipline string
	// concurrent drives the boards with sim.RunConcurrent (one goroutine
	// each) instead of the deterministic sim.Engine.
	concurrent bool
	// observed attaches the live sink set fbsim -serve -watch -perf uses:
	// an .fbt RecordSink writing to io.Discard plus the coherence, watch
	// and perf sinks.
	observed bool
	// refs is the number of references per board in one episode.
	refs int
	// gens builds one generator per board.
	gens func(boards, wordsPerLine int, seed uint64) []workload.Generator
}

func homogeneous(protocol string, n int) []sim.BoardSpec {
	return sim.Homogeneous(protocol, n).Boards
}

// abModel is the Archibald–Baer shape of the repository's abGens
// benchmarks: 32 shared lines, 80 private lines per board, pWrite 0.3,
// locality 0.5.
func abModel(pShared float64) func(boards, wordsPerLine int, seed uint64) []workload.Generator {
	return func(boards, wordsPerLine int, seed uint64) []workload.Generator {
		gens := make([]workload.Generator, boards)
		for p := range gens {
			gens[p] = &abGen{
				r: newRNG(seed, p), proc: p, shared: 32, private: 80, words: wordsPerLine,
				pShared: pShared, pWrite: 0.3, locality: 0.5,
			}
		}
		return gens
	}
}

// zipfShared gives every board a stream over one shared footprint of
// lines whose popularity follows Zipf(s).
func zipfShared(lines int, s, pWrite float64) func(boards, wordsPerLine int, seed uint64) []workload.Generator {
	return func(boards, wordsPerLine int, seed uint64) []workload.Generator {
		cdf := make([]float64, lines)
		sum := 0.0
		for k := range cdf {
			sum += 1 / math.Pow(float64(k+1), s)
			cdf[k] = sum
		}
		for k := range cdf {
			cdf[k] /= sum
		}
		gens := make([]workload.Generator, boards)
		for p := range gens {
			gens[p] = &zipfGen{r: newRNG(seed, p), proc: p, words: wordsPerLine, pWrite: pWrite, cdf: cdf}
		}
		return gens
	}
}

var scenarios = []scenario{
	{
		name: "ab-hits",
		why: "8 MOESI boards whose working set fits the 64x2 caches (~93% hits): " +
			"the engine scheduler, Board.Stall bookkeeping and the cache hit path do the work",
		boards: homogeneous("moesi", 8), shards: 1,
		refs: 40000, gens: abModel(0.2),
	},
	{
		name: "zipf-mix",
		why: "8 compatible protocols on a Zipf(0.8) footprint 16x each cache (~85% misses), " +
			"split tenure, rr, 2 shards: bus transactions, snoop fan-out, aborts and updates do the work",
		boards: []sim.BoardSpec{
			{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "moesi-update"},
			{Protocol: "berkeley"}, {Protocol: "dragon"}, {Protocol: "illinois"},
			{Protocol: "write-through"}, {Protocol: "moesi"},
		},
		shards: 2, tenure: "split", discipline: "rr",
		refs: 8000, gens: zipfShared(2048, 0.8, 0.4),
	},
	{
		name: "ab-observed",
		why: "ab-hits plus the live .fbt, coherence, watch and perf sinks: " +
			"the simulated statistics equal ab-hits, so any difference is obs emit and sink cost",
		boards: homogeneous("moesi", 8), shards: 1, observed: true,
		refs: 40000, gens: abModel(0.2),
	},
	{
		name: "sharded-conc",
		why: "concurrent engine, 8 MOESI boards on 4 shards: the only workload where arbiter grant queues " +
			"and per-shard bus and directory locks contend on the host",
		boards: homogeneous("moesi", 8), shards: 4, concurrent: true,
		refs: 160000, gens: abModel(0.05),
	},
}

// streams is how many reference streams a run cycles through: episode r
// of a run draws its references from stream r mod streams. Every
// stream comes back several times in a run, so the deterministic
// engine's repeatability is checked within the run, and the run's
// medians cover several streams rather than one.
const streams = 8

// streamSeed is the seed of stream k of a run with the given seed. No
// two (seed, k) pairs share a stream.
func streamSeed(seed uint64, k int) uint64 { return seed*streams + uint64(k) }

func findScenario(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// Line address layout, the same as the program's workload models:
// shared lines above 1<<32, each board's private lines at (proc+1)<<20.
const sharedBase = uint64(1) << 32

func privateBase(proc int) uint64 { return uint64(proc+1) << 20 }

// rng is a xorshift* stream seeded through splitmix64 from the workload
// seed and the board number, so neighbouring seeds give unrelated
// streams.
type rng struct{ s uint64 }

func newRNG(seed uint64, proc int) *rng {
	z := seed + uint64(proc+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{z}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) float() float64        { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int        { return int(r.next() % uint64(n)) }
func (r *rng) chance(p float64) bool { return r.float() < p }

// abGen is the Archibald–Baer program model: a reference repeats the
// previous line with probability locality, else touches one of the
// shared lines with probability pShared, else one of the board's
// private lines; it is a write with probability pWrite.
type abGen struct {
	r                         *rng
	proc, shared, private     int
	words                     int
	pShared, pWrite, locality float64
	last                      uint64
	has                       bool
	seq                       uint32
}

func (g *abGen) Next() workload.Ref {
	var line uint64
	switch {
	case g.has && g.r.chance(g.locality):
		line = g.last
	case g.r.chance(g.pShared):
		line = sharedBase + uint64(g.r.intn(g.shared))
	default:
		line = privateBase(g.proc) + uint64(g.r.intn(g.private))
	}
	g.last, g.has = line, true
	return store(workload.Ref{Line: line, Word: g.r.intn(g.words), Write: g.r.chance(g.pWrite)}, g.proc, &g.seq)
}

// zipfGen draws lines from a shared Zipf CDF.
type zipfGen struct {
	r           *rng
	proc, words int
	pWrite      float64
	cdf         []float64
	seq         uint32
}

func (g *zipfGen) Next() workload.Ref {
	k := sort.SearchFloat64s(g.cdf, g.r.float())
	if k == len(g.cdf) {
		k--
	}
	return store(workload.Ref{Line: sharedBase + uint64(k), Word: g.r.intn(g.words), Write: g.r.chance(g.pWrite)}, g.proc, &g.seq)
}

// store gives a write a value unique to its board and sequence number,
// so the checker's golden shadow can tell every store apart.
func store(ref workload.Ref, proc int, seq *uint32) workload.Ref {
	if ref.Write {
		*seq++
		ref.Val = uint32(proc)<<24 | *seq&0xffffff
	}
	return ref
}
