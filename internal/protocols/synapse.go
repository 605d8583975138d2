package protocols

import "futurebus/internal/core"

// Synapse returns the consistency scheme of the Synapse N+1 ([Fran84],
// cited in the paper's introduction), expressed on the Futurebus. The
// paper does not tabulate it, so this is this repository's §4-style
// adaptation, built the same way the paper adapts Illinois:
//
//   - three states (M, S, I — Synapse's "valid" maps to S like the
//     write-through V, §3.3), no cache-to-cache transfer at all: a
//     dirty owner never intervenes; it asserts BS, pushes the line to
//     memory and INVALIDATES itself ("BS;I,W" — unlike
//     Illinois/Write-Once it keeps nothing), and the retried access is
//     served by memory;
//   - writes to shared lines take ownership with an address-only
//     invalidate (the historical machine re-read the line through its
//     read-invalidate ownership request; the address-only upgrade is
//     the class-legal equivalent — see verify's TestSynapseRefetchVariantSafe
//     for the refetch form, which the model checker also proves safe);
//   - write misses are read-for-modify.
//
// Like Illinois, the result needs the BS extension but no §4 adapted
// local actions, so it mixes safely with any class member.
func Synapse() core.Policy { return synapse() }

var synapse = shared(func() core.Policy {
	states := []core.State{core.Modified, core.Shared, core.Invalid}
	locals := []core.LocalEvent{core.LocalRead, core.LocalWrite}
	buses := []core.BusEvent{core.BusCacheRead, core.BusCacheRFO}
	t := core.TableFromCells("Synapse", states, locals, buses,
		[][]string{
			{"M", "M"},
			{"S", "M,CA,IM"},
			{"S,CA,R", "M,CA,IM,R"},
		},
		[][]string{
			{"BS;I,W", "BS;I,W"},
			{"S,CH", "I"},
			{"I", "I"},
		})
	full := Extend(t, StyleInvalidate)
	full.Name = "Synapse"
	return NewPreferred("Synapse", core.CopyBack, mustInClass(full, core.CopyBack))
})
