package protocols

import (
	"fmt"
	"sort"

	"futurebus/internal/core"
)

// Factory returns the policy for one board. A table-driven protocol
// returns its one shared, frozen policy (see the package doc); the
// dynamic policies (random, round-robin) carry per-instance choice
// state, so they return a fresh instance and every cache gets its own.
type Factory func() core.Policy

// registry maps protocol names to factories for the command-line tools
// and the experiment harness.
var registry = map[string]Factory{
	"moesi":            MOESI,
	"moesi-invalidate": MOESIInvalidate,
	"moesi-update":     MOESIUpdate,
	"moesi-adaptive":   adaptive,
	"berkeley":         Berkeley,
	"dragon":           Dragon,
	"write-once":       WriteOnce,
	"illinois":         Illinois,
	"synapse":          Synapse,
	"firefly":          Firefly,
	"write-through": func() core.Policy {
		return WriteThrough(WriteThroughConfig{})
	},
	"write-through-broadcast": func() core.Policy {
		return WriteThrough(WriteThroughConfig{Broadcast: true})
	},
	"random":      func() core.Policy { return NewRandom(0xf0f0f0f0) },
	"round-robin": func() core.Policy { return NewRoundRobin() },
}

// New returns a board's policy by registry name: the shared policy of a
// table-driven protocol, a fresh one for random and round-robin.
func New(name string) (core.Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("protocols: unknown protocol %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
