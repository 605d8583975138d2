// Package futurebus is a Go reproduction of Sweazey & Smith, "A Class
// of Compatible Cache Consistency Protocols and their Support by the
// IEEE Futurebus" (ISCA 1986) — the paper that defined the MOESI
// taxonomy of cache-line states.
//
// The implementation lives under internal/:
//
//   - internal/core — the MOESI states, Futurebus consistency signals,
//     the class of compatible protocols (Tables 1–2 with their
//     relaxations), and the class-membership validator;
//   - internal/bus — the simulated Futurebus: broadcast address cycles,
//     wired-OR response lines, DI intervention, BS abort/retry, and the
//     timing model (including the 25 ns broadcast handshake penalty);
//   - internal/memory, internal/cache — the main-memory module and the
//     policy-driven snooping cache (plus uncached masters);
//   - internal/protocols — MOESI variants, Berkeley, Dragon, Write-Once,
//     Illinois, Firefly, write-through, and the random/round-robin
//     choosers of §3.4;
//   - internal/workload, internal/sim, internal/check, internal/tablegen
//     — synthetic workloads, the simulation engines, the consistency
//     checker, and the table-regeneration machinery.
//
// The runnable entry points are under cmd/ (fbpaper, fbsim, fbsweep,
// fbt, fbperf, fbtrend) and examples/ (quickstart, mixedbus,
// randomprotocol, iodma). The benchmark harness regenerating every
// table and figure of the paper is bench_test.go in this directory; see
// DESIGN.md and EXPERIMENTS.md for the experiment index and results.
package futurebus
