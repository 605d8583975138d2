// Iodma: coherent I/O without a cache. A DMA engine (a "processor
// without cache", the ** rows of Table 1) reads and writes the shared
// address space directly on the bus. It is a cache running those rows
// (protocols.NonCaching): it never retains data, so it never responds
// to bus events, yet it always sees and produces a coherent image,
// because:
//
//   - its reads appear to caches as column 7 (~CA,~IM,~BC): an owning
//     cache intervenes (DI) and supplies the dirty line, so the DMA
//     device reads data that memory does not have yet;
//   - its writes appear as column 9 (~CA,IM,~BC): an owning cache
//     captures the write (DI) and stays owner, so the new data lands in
//     the one place the system treats as authoritative.
//
// This is how a standard bus supports cheap boards and sophisticated
// copy-back caches simultaneously (§1, §3.3).
//
// Run with: go run ./examples/iodma
package main

import (
	"fmt"
	"log"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

func main() {
	const lineSize = 32
	mem := memory.New(lineSize)
	b := bus.New(mem, bus.Config{LineSize: lineSize})

	cpu := cache.New(0, b, protocols.MOESI(), cache.Config{Sets: 16, Ways: 2})
	dma := cache.New(1, b, protocols.NonCaching(false), cache.Config{Sets: 1, Ways: 1})

	const line = bus.Addr(0x40)

	// The CPU computes into the line: miss to E, silent write to M.
	must(cpu.WriteWord(line, 0, 0xDEADBEEF))
	fmt.Printf("CPU wrote %#x; cache state=%s, memory word0=%#x (stale!)\n",
		0xDEADBEEF, cpu.State(line), peek(mem, line, 0))

	// DMA reads the line for an outbound transfer. Memory is stale, but
	// the owning cache intervenes and supplies the data (column 7,
	// "M,CH?,DI" — the cache stays Modified).
	v, err := dma.ReadWord(line, 0)
	must(err)
	fmt.Printf("DMA read  %#x via cache intervention; cache state=%s (unchanged)\n",
		v, cpu.State(line))
	if v != 0xDEADBEEF {
		log.Fatalf("DMA read stale data %#x", v)
	}

	// DMA writes an inbound buffer into the same line. The owner
	// captures the write (column 9, "M,CH?,DI") — memory is preempted,
	// the cache merges the word and remains the owner.
	must(dma.WriteWord(line, 1, 0x10C0FFEE))
	fmt.Printf("DMA wrote %#x; captured by owner, cache state=%s, memory word1=%#x (still stale)\n",
		0x10C0FFEE, cpu.State(line), peek(mem, line, 1))

	// The CPU sees the DMA's data immediately — it owns the line.
	got, err := cpu.ReadWord(line, 1)
	must(err)
	fmt.Printf("CPU reads %#x back from its own (owned) copy\n", got)
	if got != 0x10C0FFEE {
		log.Fatalf("CPU lost the DMA write: %#x", got)
	}

	// Flush pushes everything to memory; now a raw memory peek agrees.
	must(cpu.Flush(line))
	fmt.Printf("after flush: cache state=%s, memory word0=%#x word1=%#x\n",
		cpu.State(line), peek(mem, line, 0), peek(mem, line, 1))

	st := cpu.Stats()
	fmt.Printf("\ncache stats: interventions supplied=%d, writes captured=%d\n",
		st.InterventionsSupplied, st.WritesCaptured)
}

func peek(m *memory.Memory, addr bus.Addr, word int) uint32 {
	line := m.Peek(addr)
	return uint32(line[word*4]) | uint32(line[word*4+1])<<8 |
		uint32(line[word*4+2])<<16 | uint32(line[word*4+3])<<24
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
