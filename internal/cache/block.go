package cache

import (
	"fmt"

	"futurebus/internal/bus"
)

// Line crossers (§5.1): "a processor operation which makes a reference
// which overlaps 2 or more lines. It should be clear that the
// processor/cache interface must be able to treat this as a separate
// transaction for each line involved, and to generate bus transactions
// on that basis." ReadBlock and WriteBlock are that interface: a
// multi-word access is decomposed into per-line accesses, each of which
// follows the per-line protocol independently — so a block can end up
// spanning lines in different states, fetched from different sources
// (one line from memory, the next from an intervening owner), or even
// governed by different per-region policies.
//
// The decomposition is NOT atomic across lines, exactly as on the real
// bus: another master may write line k+1 between our accesses to lines
// k and k+1. Per-line coherence is still guaranteed.

// wordPos advances a (line, word) position by step words.
func wordPos(addr bus.Addr, word, wordsPerLine, step int) (bus.Addr, int) {
	idx := word + step
	return addr + bus.Addr(idx/wordsPerLine), idx % wordsPerLine
}

// ReadBlock reads len(dst) consecutive words starting at (addr, word),
// crossing line boundaries as separate per-line transactions.
func (c *Cache) ReadBlock(addr bus.Addr, word int, dst []uint32) error {
	wpl := c.lineSize / 4
	if word < 0 || word >= wpl {
		return fmt.Errorf("cache %d: block start word %d outside line", c.id, word)
	}
	for i := range dst {
		a, w := wordPos(addr, word, wpl, i)
		v, err := c.ReadWord(a, w)
		if err != nil {
			return fmt.Errorf("cache %d: block read at %#x.%d: %w", c.id, uint64(a), w, err)
		}
		dst[i] = v
	}
	return nil
}

// WriteBlock writes len(src) consecutive words starting at (addr,
// word), crossing line boundaries as separate per-line transactions.
func (c *Cache) WriteBlock(addr bus.Addr, word int, src []uint32) error {
	wpl := c.lineSize / 4
	if word < 0 || word >= wpl {
		return fmt.Errorf("cache %d: block start word %d outside line", c.id, word)
	}
	for i, v := range src {
		a, w := wordPos(addr, word, wpl, i)
		if err := c.WriteWord(a, w, v); err != nil {
			return fmt.Errorf("cache %d: block write at %#x.%d: %w", c.id, uint64(a), w, err)
		}
	}
	return nil
}
