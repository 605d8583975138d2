package bus

import (
	"fmt"

	"futurebus/internal/core"
)

// Command is an extended bus command carried by an address cycle. The
// paper leaves this mechanism as future work ("Proper mechanisms must
// also be defined for issuing commands across the bus to cause other
// caches to become consistent with main memory", §6); the
// implementation here composes it entirely from existing facilities.
type Command uint8

const (
	// CmdNone — an ordinary transaction.
	CmdNone Command = iota
	// CmdClean — "make this line consistent with main memory". An
	// owning cache responds by aborting (BS), pushing the line, and
	// keeping an unowned copy; the command's retry then completes with
	// no owner left, so memory holds the image. Non-owning holders
	// keep their copies. This is exactly the §4 abort-push-retry
	// machinery applied to a synchronisation command.
	CmdClean
)

// Transaction is one Futurebus transaction: a broadcast address cycle
// carrying the master's intention signals (CA, IM, BC — §3.2.1),
// followed by an optional data phase.
type Transaction struct {
	// MasterID identifies the issuing unit; it does not snoop itself.
	MasterID int
	// Cmd marks extended command cycles (CmdNone for ordinary
	// transactions).
	Cmd Command
	// Signals is the master triple (CA, IM, BC). Together with Op it
	// determines the Table 2 column every snooper consults.
	Signals core.Signal
	// Op is the data phase: BusRead, BusWrite or BusAddrOnly.
	// (BusReadThenWrite is a client-side composite of two
	// transactions, never issued directly.)
	Op core.BusOp
	// Addr is the line address.
	Addr Addr
	// Data is the master's line buffer for the data phase, so a line
	// crosses the bus once, into or out of memory the master owns. On a
	// full-line write (a write-back or BS recovery push) it is the
	// payload. On a read it is where the line lands: the bus copies the
	// intervening owner's or memory's copy into it, and Result.Data is
	// this same slice. Its length is the system line size; address-only
	// cycles and partial writes carry none.
	Data []byte
	// Partial marks a single-word write whose payload is Val at word
	// index Word: the broadcast word of an update protocol, a
	// write-through store, or an uncached store. Participants (memory,
	// a capturing owner, connecting SL slaves) merge the word into their
	// own copies.
	Partial bool
	Word    int
	Val     uint32

	// txid is the arbiter-allocated transaction id, stamped by the bus
	// at the start of execution so snoopers can tag the events their
	// Commit/Recover emits with the causing transaction.
	txid uint64
}

// TxID returns the arbiter-allocated transaction id (0 before the bus
// has begun executing the transaction). Snoopers read it during the
// address cycle to attribute their state changes.
func (tx *Transaction) TxID() uint64 { return tx.txid }

// Event returns the Table 2 column snoopers consult for this
// transaction, classified from the master signal triple.
func (tx *Transaction) Event() core.BusEvent {
	return core.ClassifyBusEvent(tx.Signals)
}

func (tx *Transaction) check(lineSize int) error {
	switch tx.Op {
	case core.BusAddrOnly:
		if tx.Data != nil || tx.Partial {
			return fmt.Errorf("bus: %s carries data", tx)
		}
	case core.BusRead:
		switch {
		case tx.Partial:
			return fmt.Errorf("bus: %s carries a partial write", tx)
		case len(tx.Data) != lineSize:
			return fmt.Errorf("bus: read into a %d-byte buffer, system line size is %d", len(tx.Data), lineSize)
		}
	case core.BusWrite:
		switch {
		case tx.Data != nil && tx.Partial:
			return fmt.Errorf("bus: %s carries both full-line and partial data", tx)
		case tx.Partial:
			if tx.Word < 0 || (tx.Word+1)*4 > lineSize {
				return fmt.Errorf("bus: partial write word %d outside %d-byte line", tx.Word, lineSize)
			}
		case len(tx.Data) != lineSize:
			return fmt.Errorf("bus: write of %d bytes, system line size is %d (§5.1 requires a standard line size)", len(tx.Data), lineSize)
		}
	default:
		return fmt.Errorf("bus: invalid op in %s", tx)
	}
	if tx.Signals&^core.MasterSignals != 0 {
		return fmt.Errorf("bus: master asserted response signals in %s", tx)
	}
	return nil
}

func (tx *Transaction) String() string {
	sig := tx.Signals.String()
	if sig == "" {
		sig = "~CA,~IM,~BC"
	}
	op := tx.Op.String()
	if op == "" {
		op = "addr"
	}
	return fmt.Sprintf("tx{master=%d %s %s addr=%#x}", tx.MasterID, sig, op, uint64(tx.Addr))
}
