package cache

import (
	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// CleanLine issues the CmdClean command cycle (the §6 "commands across
// the bus" extension): after it completes, no cache owns the line and
// main memory holds the current data. Holders keep unowned copies, so
// the command is purely a write-back, not an invalidation — the
// mechanism a system controller uses before handing a buffer to a
// device that does not snoop the Futurebus.
//
// masterID must not be the id of a snooper that may own the line (a
// snooper never observes its own transactions): use a dedicated
// controller id, or that of a non-caching board, which holds no line.
func CleanLine(b bus.Fabric, masterID int, addr bus.Addr) error {
	_, err := b.Execute(bus.Transaction{
		MasterID: masterID,
		Cmd:      bus.CmdClean,
		Op:       core.BusAddrOnly,
		Addr:     addr,
	})
	return err
}
