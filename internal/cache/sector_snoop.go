package cache

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// The bus side of the sector cache. Consistency state lives on the
// transfer sub-sector (§5.1), so snooping is line-granular and the
// policy tables apply unchanged; only the directory lookup differs.
// Locking follows the plain cache: Query takes the shard lock guarding
// the transaction's address, Commit/Cancel release it.

var _ bus.Aborter = (*SectorCache)(nil)

// SnooperID implements bus.Snooper.
func (c *SectorCache) SnooperID() int { return c.id }

// Query implements bus.Snooper (leaves the addressed shard's lock held;
// see bus.Snooper).
func (c *SectorCache) Query(tx *bus.Transaction) bus.SnoopResponse {
	c.shard(tx.Addr).mu.Lock() // released by Commit or Cancel
	e, si := c.lookup(tx.Addr)
	if e == nil || !e.subs[si].state.Valid() {
		return bus.SnoopResponse{}
	}
	if tx.Cmd == bus.CmdClean {
		if e.subs[si].state.OwnedCopy() {
			return bus.SnoopResponse{
				Action: core.SnoopAction{Abort: &core.Recovery{Next: core.Shared, Assert: core.SigCA}},
				State:  e.subs[si].state,
				Hit:    true,
			}
		}
		return bus.SnoopResponse{
			Action: core.SnoopAction{Next: core.Uncond(e.subs[si].state), AssertCH: true},
			State:  e.subs[si].state,
			Hit:    true,
		}
	}
	action, ok := c.policy.ChooseSnoop(e.subs[si].state, tx.Event())
	if !ok {
		panic(fmt.Sprintf("sector cache %d (%s): illegal bus event col %d in state %s for %s",
			c.id, c.policy.Name(), tx.Event().Column(), e.subs[si].state, tx))
	}
	resp := bus.SnoopResponse{Action: action, State: e.subs[si].state, Hit: true}
	if action.AssertDI {
		resp.Line = e.subs[si].data // copied by the bus under this lock
	}
	return resp
}

// Commit implements bus.Snooper.
func (c *SectorCache) Commit(tx *bus.Transaction, resp bus.SnoopResponse, otherCH bool) {
	sh := c.shard(tx.Addr)
	defer sh.mu.Unlock()
	if !resp.Hit {
		return
	}
	e, si := c.lookup(tx.Addr)
	if e == nil {
		panic(fmt.Sprintf("sector cache %d: sector of %#x vanished during snoop", c.id, uint64(tx.Addr)))
	}
	s := &e.subs[si]
	action := resp.Action
	sh.stats.SnoopHits++

	if tx.Op == core.BusWrite && (action.AssertDI || action.AssertSL) {
		if tx.Partial {
			putWord(s.data, tx.Word, tx.Val)
		} else {
			copy(s.data, tx.Data)
		}
		if action.AssertDI {
			c.emitSnoop(obs.KindCapture, tx)
		} else {
			sh.stats.UpdatesReceived++
			c.emitSnoop(obs.KindUpdate, tx)
		}
	}
	if tx.Op == core.BusRead && action.AssertDI {
		sh.stats.InterventionsSupplied++
		c.emitSnoop(obs.KindIntervene, tx)
	}

	next := action.Next.Resolve(otherCH)
	if !next.Valid() {
		next = core.Invalid
		sh.stats.InvalidationsReceived++
	}
	c.setSubState(sh, tx.Addr, s, next, snoopCause(tx), tx.TxID())
}

// Cancel implements bus.Snooper.
func (c *SectorCache) Cancel(tx *bus.Transaction, resp bus.SnoopResponse) {
	c.shard(tx.Addr).mu.Unlock()
}

// Recover implements bus.Aborter (BS push of one sub-sector). The push
// targets the aborted transaction's address, so it stays on the shard
// whose sweep invoked us — holding that shard's lock across the nested
// ExecuteHeld cannot deadlock (see Cache.Recover).
func (c *SectorCache) Recover(b *bus.Bus, aborted *bus.Transaction, resp bus.SnoopResponse) error {
	rec := resp.Action.Abort
	if rec == nil {
		return fmt.Errorf("sector cache %d: Recover without an abort action", c.id)
	}
	sh := c.shard(aborted.Addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, si := c.lookup(aborted.Addr)
	if e == nil || !e.subs[si].state.OwnedCopy() {
		return fmt.Errorf("sector cache %d: BS recovery for %#x but sub-sector is not owned", c.id, uint64(aborted.Addr))
	}
	res, err := b.ExecuteHeld(bus.Transaction{
		MasterID: c.id,
		Signals:  rec.Assert,
		Addr:     aborted.Addr,
		Op:       core.BusWrite,
		Data:     e.subs[si].data, // in place: the lock is held across the push
	})
	if err != nil {
		return err
	}
	c.noteStall(sh, aborted.Addr, res.StallCost())
	next := rec.Next
	if !next.Valid() {
		next = core.Invalid
	}
	c.setSubState(sh, aborted.Addr, &e.subs[si], next, "bs-recovery", res.TxID)
	return nil
}

// emitSnoop mirrors Cache.emitSnoop for the sector cache's data
// movements as a snooper. Callers hold the addressed shard's lock.
func (c *SectorCache) emitSnoop(kind obs.Kind, tx *bus.Transaction) {
	if rec := c.obs; rec != nil {
		rec.Emit(obs.Event{TS: rec.Clock(), Kind: kind, Bus: c.bus.SegmentID(tx.Addr), Proc: c.id, Addr: uint64(tx.Addr), TxID: tx.TxID()})
	}
}
