// Package workload generates deterministic synthetic reference streams
// for the simulator. The paper has no traces of its own — its
// performance discussion (§5.2) rests on [Arch85], whose simulations
// "are based only on a model of program behavior [Dubo82]". This
// package implements the same style of model (shared blocks referenced
// with a given probability and write ratio, private working sets with
// locality) plus structured sharing patterns (migratory,
// producer/consumer, read-mostly, ping-pong) that exercise the protocol
// behaviours the paper discusses.
package workload

// RNG is a small deterministic xorshift* generator. Reference streams
// must be reproducible across runs and platforms, so no seeding from
// time or math/rand global state.
type RNG struct{ state uint64 }

// NewRNG creates a generator; seed 0 is remapped to a fixed constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
