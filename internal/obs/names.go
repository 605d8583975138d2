package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Name is the id of a name an event carries by reference: the protocol
// governing a line (Event.Proto) or an epoch's arbitration discipline
// (Event.Disc). Ids come from one process-wide table, in first-use
// order; the zero Name is the empty name. Nothing outside the process
// sees an id: every output writes the name itself, so ids need not be
// stable from run to run.
type Name uint16

// maxDecodedNames caps the table against input: a decoded trace or
// JSON event may add a name only while the table holds fewer. The
// names a program itself gives — its protocols and disciplines — are
// a fixed vocabulary and are never refused.
const maxDecodedNames = 1 << 10

// names is the id → name table. It is shared by the whole process so
// that a cache can name its protocol once, when it is built, and every
// sink can render an id without being told which recorder or trace it
// came from. list is replaced, never written, so String reads it
// without the lock.
var names = struct {
	mu   sync.Mutex
	ids  map[string]Name
	list atomic.Pointer[[]string]
}{ids: map[string]Name{}}

func init() { names.list.Store(&[]string{""}) }

// NameOf returns the id of s, giving s the next free id on its first
// use. A program calls it when it builds what it will name — a cache
// for its policy, a system for its discipline — not per event.
func NameOf(s string) Name {
	n, ok := intern(s, math.MaxUint16+1)
	if !ok {
		panic("obs: more than 65536 protocol and discipline names")
	}
	return n
}

// decodeName is NameOf for a name read from input, refused once the
// table holds maxDecodedNames names.
func decodeName(s string) (Name, error) {
	n, ok := intern(s, maxDecodedNames)
	if !ok {
		return 0, fmt.Errorf("name %q would grow the name table past %d entries", s, maxDecodedNames)
	}
	return n, nil
}

func intern(s string, limit int) (Name, bool) {
	if s == "" {
		return 0, true
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	if n, ok := names.ids[s]; ok {
		return n, true
	}
	list := *names.list.Load()
	if len(list) >= limit {
		return 0, false
	}
	n := Name(len(list))
	grown := append(list[:len(list):len(list)], s)
	names.ids[s] = n
	names.list.Store(&grown)
	return n, true
}

// String returns the name n stands for.
func (n Name) String() string {
	if list := *names.list.Load(); int(n) < len(list) {
		return list[n]
	}
	return fmt.Sprintf("name(%d)", uint16(n))
}
