package check

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// LineSource is any directory the checker can inspect: a plain cache, a
// sector cache, or a hierarchy bridge store.
type LineSource interface {
	ID() int
	ForEachLine(fn func(addr bus.Addr, s core.State, data []byte))
}

// Violation is one detected breach of the consistency criterion.
type Violation struct {
	Addr bus.Addr
	// Invariant is the §3.1 invariant the line breaches.
	Invariant core.Invariant
	Reason    string
}

func (v Violation) String() string {
	return fmt.Sprintf("line %#x: %s: %s", uint64(v.Addr), v.Invariant, v.Reason)
}

// copyInfo is one cache's view of a line.
type copyInfo struct {
	cacheID int
	state   core.State
	data    []byte
}

// MemoryImage is the checker's view of main memory: any store that can
// produce the current image of a line — a single module
// (*memory.Memory) or an interleaved set of shards (*memory.Sharded),
// which routes the Peek to the line's home module.
type MemoryImage interface {
	Peek(addr bus.Addr) []byte
}

// Checker verifies the MOESI invariants over a quiesced system — no
// transactions may be in flight while Check runs (run it at barriers or
// after all processors stop).
type Checker struct {
	Caches []LineSource
	Memory MemoryImage
	// Shadow, when non-nil, is the golden record of every store
	// performed, and the truth every copy and memory is judged against.
	Shadow *Shadow
}

// Check runs the consistency criterion over every line held in a cache
// or written by the program, and returns every violation found.
//
// Each line is judged against its truth: the value the program last
// wrote (Shadow) when the checker has one, and otherwise the line's
// image — the owner's copy, or memory when no cache owns the line
// (§3.1.3: "main memory is the default owner"). Every valid copy and
// memory is current or stale against that truth; core.Copies counts
// them, and the checker reports one violation for each §3.1 invariant
// core.Copies.Breaches names.
func (c *Checker) Check() []Violation {
	var out []Violation
	byLine := make(map[bus.Addr][]copyInfo)
	for _, ca := range c.Caches {
		id := ca.ID()
		ca.ForEachLine(func(addr bus.Addr, s core.State, data []byte) {
			byLine[addr] = append(byLine[addr], copyInfo{cacheID: id, state: s, data: data})
		})
	}

	addrs := make([]bus.Addr, 0, len(byLine))
	for addr := range byLine {
		addrs = append(addrs, addr)
	}
	if c.Shadow != nil {
		for _, addr := range c.Shadow.Lines() {
			if _, ok := byLine[addr]; !ok {
				addrs = append(addrs, addr)
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, addr := range addrs {
		copies := byLine[addr]
		out = append(out, c.checkLine(addr, copies)...)
	}
	return out
}

func (c *Checker) checkLine(addr bus.Addr, copies []copyInfo) []Violation {
	var owners []copyInfo
	for _, cp := range copies {
		if cp.state.OwnedCopy() {
			owners = append(owners, cp)
		}
	}
	memLine := c.Memory.Peek(addr)
	truth, source := memLine, "memory"
	switch {
	case c.Shadow != nil:
		truth, source = c.Shadow.Line(addr), "the golden record of writes"
	case len(owners) > 0:
		truth, source = owners[0].data, "the owner's copy"
	}
	sum := core.Copies{MemStale: !bytes.Equal(memLine, truth)}
	var stale []copyInfo
	for _, cp := range copies {
		differs := !bytes.Equal(cp.data, truth)
		sum.Add(cp.state, differs)
		if differs {
			stale = append(stale, cp)
		}
	}

	breaches := sum.Breaches()
	if breaches == 0 {
		return nil
	}
	var out []Violation
	bad := func(inv core.Invariant, format string, args ...any) {
		out = append(out, Violation{Addr: addr, Invariant: inv, Reason: fmt.Sprintf(format, args...)})
	}
	if breaches.Has(core.UniqueOwner) {
		bad(core.UniqueOwner, "owned by %d caches (%s)", len(owners), describe(owners))
	}
	if breaches.Has(core.RealExclusivity) {
		cp := first(copies, core.State.ExclusiveCopy)
		bad(core.RealExclusivity, "cache %d claims exclusivity (%s) but %d caches hold copies",
			cp.cacheID, cp.state.Letter(), sum.Valid)
	}
	if breaches.Has(core.MemoryOwner) {
		bad(core.MemoryOwner, "no owner, but memory differs from %s", source)
	}
	if breaches.Has(core.EMatchesMemory) {
		cp := first(copies, func(s core.State) bool { return s == core.Exclusive })
		bad(core.EMatchesMemory, "cache %d holds E but memory differs from %s", cp.cacheID, source)
	}
	if breaches.Has(core.SingleImage) {
		bad(core.SingleImage, "copies differ from %s (%s)", source, describe(stale))
	}
	return out
}

// first returns the first copy whose state satisfies is.
func first(copies []copyInfo, is func(core.State) bool) copyInfo {
	for _, cp := range copies {
		if is(cp.state) {
			return cp
		}
	}
	return copyInfo{}
}

func describe(copies []copyInfo) string {
	var b bytes.Buffer
	for i, cp := range copies {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "cache %d=%s", cp.cacheID, cp.state.Letter())
	}
	return b.String()
}

// MustPass runs Check and returns an error summarising any violations.
func (c *Checker) MustPass() error {
	return Failure("consistency check failed with", c.Check())
}

// Failure summarises violations as one error, led by what and their
// count and listing the first 20; nil when there are none.
func Failure[V fmt.Stringer](what string, vs []V) error {
	if len(vs) == 0 {
		return nil
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d violations:", what, len(vs))
	for i, v := range vs {
		if i == 20 {
			fmt.Fprintf(&b, "\n  … and %d more", len(vs)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return errors.New(b.String())
}
