package hierarchy

// SetErr defers err on the bridge, as a failing memory-port or snoop
// hook does.
func (b *Bridge) SetErr(err error) { b.setErr(err) }
