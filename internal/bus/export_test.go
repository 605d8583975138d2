package bus

// Timing returns the cost model in use.
func (b *Bus) Timing() Timing { return b.cfg.Timing }
