package cache

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// This file is the processor side of the cache. The locking discipline
// (see the package comment) is:
//
//   - a shard's directory lock is never held while waiting for the bus
//     arbiter;
//   - nor across ExecuteHeld, because a BS abort can trigger a nested
//     recovery push that snoops *this* cache (we master the aborted
//     transaction, not the push). While we hold the bus shard, only
//     our own transactions on it and their nested recoveries run, so
//     the directory state we computed under the lock cannot be changed
//     by any other master in the window where it is released — every
//     transaction touching this line serialises through the shard we
//     hold.

// ReadWord performs a processor read of one 32-bit word.
func (c *Cache) ReadWord(addr bus.Addr, wordIdx int) (uint32, error) {
	if err := c.checkWord(wordIdx); err != nil {
		return 0, err
	}
	sh := c.shard(addr)
	c.lock(sh)
	sh.stats.Reads++
	if l := c.lookup(addr); l != nil {
		// Read hit: every protocol in the class keeps the state (the
		// Read column of Table 1 is the identity on valid states).
		action, ok := c.policyFor(addr).ChooseLocal(l.state, core.LocalRead)
		if !ok || action.NeedsBus() {
			c.unlock(sh)
			return 0, fmt.Errorf("cache %d (%s): no local read action for state %s", c.id, c.policyFor(addr).Name(), l.state)
		}
		c.setState(sh, l, action.Next.Resolve(false), obs.CauseReadHit)
		c.touch(sh, l)
		v := word(c.lineData(l), wordIdx)
		sh.stats.ReadHits++
		c.unlock(sh)
		return v, nil
	}
	sh.stats.ReadMisses++
	c.unlock(sh)

	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)
	data, err := c.fillLine(addr, core.LocalRead)
	if err != nil {
		return 0, err
	}
	return word(data, wordIdx), nil
}

// WriteWord performs a processor write of one 32-bit word.
func (c *Cache) WriteWord(addr bus.Addr, wordIdx int, val uint32) error {
	if err := c.checkWord(wordIdx); err != nil {
		return err
	}
	sh := c.shard(addr)
	c.lock(sh)
	sh.stats.Writes++
	l := c.lookup(addr)
	if l != nil {
		action, ok := c.policyFor(addr).ChooseLocal(l.state, core.LocalWrite)
		if !ok {
			st := l.state
			c.unlock(sh)
			return fmt.Errorf("cache %d (%s): no local write action for state %s", c.id, c.policyFor(addr).Name(), st)
		}
		if !action.NeedsBus() {
			// Silent write: M stays M, E goes to M (the M/E pair of
			// Figure 4 — no other copy can exist).
			c.setState(sh, l, action.Next.Resolve(false), obs.CauseSilentWrite)
			putWord(c.lineData(l), wordIdx, val)
			c.touch(sh, l)
			sh.stats.WriteHits++
			c.noteWrite(addr, wordIdx, val)
			c.unlock(sh)
			return nil
		}
	}
	c.unlock(sh)

	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)
	return c.writeHeld(addr, wordIdx, val)
}

// writeHeld performs a write while the caller holds addr's bus shard,
// re-examining the directory first: while the caller waited for the
// arbiter, another master may have invalidated or downgraded the copy.
func (c *Cache) writeHeld(addr bus.Addr, wordIdx int, val uint32) error {
	sh := c.shard(addr)
	c.lock(sh)
	if c.lookup(addr) == nil {
		c.unlock(sh)
		return c.writeMiss(addr, wordIdx, val)
	}
	sh.stats.WriteHits++
	return c.writeHitBus(addr, wordIdx, val) // unlocks the shard
}

// writeHitBus handles a write hit that needs the bus (states S and O:
// the S/O pair of Figure 4 — other copies may exist, so the change must
// be broadcast or the other copies invalidated). Called with the bus
// held and addr's shard locked; it unlocks the shard.
func (c *Cache) writeHitBus(addr bus.Addr, wordIdx int, val uint32) error {
	sh := c.shard(addr)
	l := c.lookup(addr)
	action, ok := c.policyFor(addr).ChooseLocal(l.state, core.LocalWrite)
	if !ok {
		st := l.state
		c.unlock(sh)
		return fmt.Errorf("cache %d (%s): no local write action for state %s", c.id, c.policyFor(addr).Name(), st)
	}
	if !action.NeedsBus() {
		// The state improved (e.g. everyone else was invalidated)
		// while we waited for the bus.
		c.setState(sh, l, action.Next.Resolve(false), obs.CauseWriteHit)
		putWord(c.lineData(l), wordIdx, val)
		c.touch(sh, l)
		c.noteWrite(addr, wordIdx, val)
		c.unlock(sh)
		return nil
	}
	sh.stats.WriteUpgrades++
	c.unlock(sh)

	tx := bus.Transaction{
		MasterID: c.id,
		Signals:  action.Assert,
		Addr:     addr,
		Op:       action.Op,
	}
	if action.Op == core.BusWrite {
		// Update protocols broadcast the written word; holders connect
		// (SL) and merge it, memory is updated as a Futurebus side
		// effect (§4.2).
		tx.Partial, tx.Word, tx.Val = true, wordIdx, val
	}
	res, err := c.bus.ExecuteHeld(tx)
	if err != nil {
		return err
	}

	c.lock(sh)
	l = c.lookup(addr)
	if l == nil {
		c.unlock(sh)
		return fmt.Errorf("cache %d: line %#x vanished during its own upgrade", c.id, uint64(addr))
	}
	c.setStateTx(sh, l, action.Next.Resolve(res.CH), obs.CauseWriteUpgrade, res.TxID)
	putWord(c.lineData(l), wordIdx, val)
	c.touch(sh, l)
	c.noteStall(sh, addr, res.StallCost())
	c.noteWrite(addr, wordIdx, val)
	c.unlock(sh)
	return nil
}

// writeMiss handles a write to a line the cache does not hold. Called
// with the bus held and the shard unlocked.
func (c *Cache) writeMiss(addr bus.Addr, wordIdx int, val uint32) error {
	sh := c.shard(addr)
	c.lock(sh)
	sh.stats.WriteMisses++
	c.unlock(sh)
	action, ok := c.policyFor(addr).ChooseLocal(core.Invalid, core.LocalWrite)
	if !ok {
		return fmt.Errorf("cache %d (%s): no write-miss action", c.id, c.policyFor(addr).Name())
	}
	switch action.Op {
	case core.BusRead:
		// Read-for-modify: fetch the line and invalidate every other
		// copy in one transaction (CA, IM, R — column 6).
		if _, err := c.fillLineWith(addr, action); err != nil {
			return err
		}
		c.lock(sh)
		l := c.lookup(addr)
		if l == nil {
			c.unlock(sh)
			return fmt.Errorf("cache %d: RFO fill of %#x vanished", c.id, uint64(addr))
		}
		putWord(c.lineData(l), wordIdx, val)
		c.touch(sh, l)
		c.noteWrite(addr, wordIdx, val)
		c.unlock(sh)
		return nil
	case core.BusReadThenWrite:
		// Two transactions (Table 1 "Read>Write"): a normal read miss,
		// then the write-hit path on the resulting state.
		if _, err := c.fillLine(addr, core.LocalRead); err != nil {
			return err
		}
		c.lock(sh)
		if l := c.lookup(addr); l == nil {
			c.unlock(sh)
			return fmt.Errorf("cache %d: Read>Write fill of %#x vanished", c.id, uint64(addr))
		}
		action2, ok := c.policyFor(addr).ChooseLocal(c.mustState(addr), core.LocalWrite)
		if !ok {
			c.unlock(sh)
			return fmt.Errorf("cache %d (%s): no write action after Read>Write", c.id, c.policyFor(addr).Name())
		}
		if !action2.NeedsBus() {
			l := c.lookup(addr)
			c.setState(sh, l, action2.Next.Resolve(false), obs.CauseWriteHit)
			putWord(c.lineData(l), wordIdx, val)
			c.touch(sh, l)
			c.noteWrite(addr, wordIdx, val)
			c.unlock(sh)
			return nil
		}
		return c.writeHitBus(addr, wordIdx, val) // unlocks the shard
	case core.BusWrite:
		// Write past the cache (a write-through or non-allocating
		// write): a partial word write, no local copy afterwards.
		res, err := c.bus.ExecuteHeld(bus.Transaction{
			MasterID: c.id,
			Signals:  action.Assert,
			Addr:     addr,
			Op:       core.BusWrite,
			Partial:  true, Word: wordIdx, Val: val,
		})
		if err != nil {
			return err
		}
		c.lock(sh)
		c.noteStall(sh, addr, res.StallCost())
		c.noteWrite(addr, wordIdx, val)
		c.unlock(sh)
		return nil
	default:
		return fmt.Errorf("cache %d (%s): unsupported write-miss op %v", c.id, c.policyFor(addr).Name(), action.Op)
	}
}

// mustState returns the state of addr; callers hold addr's shard lock.
func (c *Cache) mustState(addr bus.Addr) core.State {
	if l := c.lookup(addr); l != nil {
		return l.state
	}
	return core.Invalid
}

// fillLine performs a read-miss fill using the policy's read-miss
// action. Called with the bus held and the shard unlocked. Returns the
// buffer the line landed in (see fillLineWith).
func (c *Cache) fillLine(addr bus.Addr, event core.LocalEvent) ([]byte, error) {
	action, ok := c.policyFor(addr).ChooseLocal(core.Invalid, event)
	if !ok {
		return nil, fmt.Errorf("cache %d (%s): no miss action for %s", c.id, c.policyFor(addr).Name(), event)
	}
	return c.fillLineWith(addr, action)
}

// fillLineWith fetches addr with the given miss action and installs the
// line. Called with the bus held and the shard unlocked. The line lands
// once, straight in the way it will occupy — or, for a read that retains
// nothing, in the shard's scratch line — and that buffer is returned,
// valid while the caller holds the bus. The way is invalid while the
// transaction runs, so no snoop of this cache looks at its bytes; and
// while we hold the shard, no other master can claim the way.
func (c *Cache) fillLineWith(addr bus.Addr, action core.LocalAction) ([]byte, error) {
	if action.Op != core.BusRead {
		return nil, fmt.Errorf("cache %d (%s): miss action %s is not a read", c.id, c.policyFor(addr).Name(), action)
	}
	sh := c.shard(addr)
	retains := action.Next.OnCH.Valid() || action.Next.NoCH.Valid()
	if retains {
		// Only reads that install a line need a victim; an uncacheable
		// read ("I,R") must not disturb the resident set.
		if err := c.makeRoom(addr); err != nil {
			return nil, err
		}
	}
	c.lock(sh)
	var slot *line
	var data []byte
	if retains {
		var evict bool
		if _, slot, evict = c.victim(addr); evict {
			// makeRoom freed a way; a way to evict here means the set
			// filled up again, which is impossible while we hold the bus
			// shard every transaction on this set serialises through.
			c.unlock(sh)
			return nil, fmt.Errorf("cache %d: no free way for %#x after eviction", c.id, uint64(addr))
		}
		data = c.lineData(slot)
	} else {
		if len(sh.line) != c.lineSize {
			sh.line = make([]byte, c.lineSize) // the scratch line, on first use
		}
		data = sh.line
	}
	c.unlock(sh)

	res, err := c.bus.ExecuteHeld(bus.Transaction{
		MasterID: c.id,
		Signals:  action.Assert,
		Addr:     addr,
		Op:       core.BusRead,
		Data:     data,
	})
	if err != nil {
		return nil, err
	}
	next := action.Next.Resolve(res.CH)

	c.lock(sh)
	defer c.unlock(sh)
	c.noteStall(sh, addr, res.StallCost())
	if !next.Valid() {
		// A non-caching read: nothing retained.
		return data, nil
	}
	c.setStateTx(sh, slot, next, obs.CauseFill, res.TxID)
	c.touch(sh, slot)
	return data, nil
}

// makeRoom readies a way of addr's set for addr's line, evicting the
// victim way if no way is free: every valid line of it leaves through
// the policy's Flush action, dirty (owned) lines pushed to memory. The
// way then takes addr's tag. Called with the bus held and the shard
// unlocked. The victim shares addr's set and therefore its home shard,
// so the pushes run on the bus tenure already held.
func (c *Cache) makeRoom(addr bus.Addr) error {
	sh := c.shard(addr)
	c.lock(sh)
	defer c.unlock(sh)
	way, slot, evict := c.victim(addr)
	if evict {
		sh.stats.Replacements++
		if c.cfg.OnEvict != nil {
			// Inclusion hook: let a bridge clear its cluster's copies
			// before the lines leave this directory (bus held), then
			// choose again.
			for i := range way {
				if a := way[i].addr; way[i].state.Valid() {
					c.unlock(sh)
					err := c.cfg.OnEvict(a)
					c.lock(sh)
					if err != nil {
						return err
					}
				}
			}
			way, slot, evict = c.victim(addr)
		}
	}
	if evict {
		for i := range way {
			if way[i].state.Valid() {
				if err := c.evict(sh, &way[i]); err != nil {
					return err
				}
			}
		}
	}
	c.claim(sh, way, slot, addr)
	return nil
}

// evict pushes one line out of a victim way with the policy's Flush
// action: dropped silently when the action needs no bus (clean E, S),
// written back otherwise. Called with the bus held and sh locked; sh is
// locked again when it returns.
func (c *Cache) evict(sh *cacheShard, v *line) error {
	victimAddr := v.addr
	action, ok := c.policyFor(victimAddr).ChooseLocal(v.state, core.Flush)
	if !ok {
		return fmt.Errorf("cache %d (%s): no flush action for state %s", c.id, c.policyFor(victimAddr).Name(), v.state)
	}
	if !action.NeedsBus() {
		c.setState(sh, v, core.Invalid, obs.CauseEvictClean)
		return nil
	}
	data := c.lineData(v)
	c.unlock(sh)

	// Push the dirty line straight from its way, which stays valid and
	// unwritten until the push completes: our processor is here, and
	// only our transactions run on the shard we hold. The flusher
	// retains nothing, so CA is not asserted; sharers of an O line
	// observe column 7 and keep their copies while memory resumes
	// ownership (Table 1, note 4).
	res, err := c.bus.ExecuteHeld(bus.Transaction{
		MasterID: c.id,
		Signals:  action.Assert,
		Addr:     victimAddr,
		Op:       core.BusWrite,
		Data:     data,
	})
	c.lock(sh)
	if err != nil {
		return err
	}
	sh.stats.DirtyEvictions++
	sh.stats.Flushes++
	c.noteStall(sh, victimAddr, res.StallCost())
	if rec := c.obs; rec != nil {
		rec.Emit(&obs.Event{TS: rec.Clock(), Kind: obs.KindEvict, Bus: int32(c.bus.SegmentID(victimAddr)), Proc: int32(c.id), Addr: uint64(victimAddr), TxID: res.TxID})
	}
	if l := c.lookup(victimAddr); l != nil {
		c.setStateTx(sh, l, action.Next.Resolve(res.CH), obs.CauseEvict, res.TxID)
	}
	return nil
}

// Flush pushes a line out of the cache (Table 1 note 4): dirty lines
// are written back, clean lines dropped. It is a no-op if the cache
// does not hold the line.
func (c *Cache) Flush(addr bus.Addr) error {
	return c.pushLine(addr, core.Flush)
}

// Pass pushes a dirty line back to memory but keeps a copy (Table 1
// note 3): ownership returns to memory, the cache retains the line in
// an unowned state. It is a no-op on unowned or absent lines.
func (c *Cache) Pass(addr bus.Addr) error {
	sh := c.shard(addr)
	c.lock(sh)
	l := c.lookup(addr)
	if l == nil || !l.state.OwnedCopy() {
		c.unlock(sh)
		return nil
	}
	c.unlock(sh)
	return c.pushLine(addr, core.Pass)
}

func (c *Cache) pushLine(addr bus.Addr, event core.LocalEvent) error {
	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)
	sh := c.shard(addr)
	c.lock(sh)
	l := c.lookup(addr)
	if l == nil {
		c.unlock(sh)
		return nil
	}
	action, ok := c.policyFor(addr).ChooseLocal(l.state, event)
	if !ok {
		if event == core.Pass {
			c.unlock(sh)
			return nil
		}
		st := l.state
		c.unlock(sh)
		return fmt.Errorf("cache %d (%s): no %s action for state %s", c.id, c.policyFor(addr).Name(), event, st)
	}
	if !action.NeedsBus() {
		c.setState(sh, l, action.Next.Resolve(false), obs.CausePush)
		if event == core.Flush {
			sh.stats.Flushes++
		}
		c.unlock(sh)
		return nil
	}
	data := c.lineData(l) // pushed in place, as in makeRoom: we hold the shard
	c.unlock(sh)

	res, err := c.bus.ExecuteHeld(bus.Transaction{
		MasterID: c.id,
		Signals:  action.Assert,
		Addr:     addr,
		Op:       core.BusWrite,
		Data:     data,
	})
	if err != nil {
		return err
	}
	c.lock(sh)
	if l := c.lookup(addr); l != nil {
		c.setStateTx(sh, l, action.Next.Resolve(res.CH), obs.CausePush, res.TxID)
	}
	switch event {
	case core.Pass:
		sh.stats.Passes++
	case core.Flush:
		sh.stats.Flushes++
	}
	c.noteStall(sh, addr, res.StallCost())
	c.unlock(sh)
	return nil
}

// noteWrite reports an applied write to the golden-image observer.
// Callers hold the shard lock or the bus (the point of visibility).
func (c *Cache) noteWrite(addr bus.Addr, wordIdx int, val uint32) {
	if c.cfg.OnWrite != nil {
		c.cfg.OnWrite(addr, wordIdx, val)
	}
}
