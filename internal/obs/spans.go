package obs

// Bus-transaction phases, in pipeline order. The bus decomposes every
// completed transaction's time into these (bus.PhaseCosts) and carries
// the breakdown on the KindTx event; SpanFromEvent reconstructs a span
// from it.
const (
	PhaseArb          = iota // arbitration wait before the grant
	PhaseAddr                // successful broadcast address handshake
	PhaseData                // data beats (incl. broadcast penalties)
	PhaseIntervention        // cache-to-cache first-word (DI)
	PhaseMemory              // memory first-word
	PhaseRetry               // BS abort/retry overhead
	NumPhases
)

// PhaseNames are the stable exposition labels, indexed by phase.
var PhaseNames = [NumPhases]string{
	"arb", "addr", "data", "intervention", "memory", "retry",
}

// TxSpan is one reconstructed bus transaction with its per-phase time
// decomposition — the "why was this miss slow" unit.
type TxSpan struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts"`
	Dur     int64  `json:"dur"`
	Bus     int    `json:"bus"`
	Proc    int    `json:"proc"`
	Col     int    `json:"col"`
	Op      string `json:"op"`
	Addr    uint64 `json:"addr"`
	Retries int    `json:"retries"`
	// Phases holds the per-phase nanoseconds, indexed by Phase*;
	// entries 1..NumPhases-1 sum to Dur, entry PhaseArb is waiting time
	// on top of it.
	Phases [NumPhases]int64 `json:"phases"`
}

// SpanFromEvent reconstructs a TxSpan from a KindTx event; ok is false
// for every other kind.
func SpanFromEvent(e *Event) (TxSpan, bool) {
	if e.Kind != KindTx {
		return TxSpan{}, false
	}
	return TxSpan{
		Seq: e.Seq, TS: e.TS, Dur: e.Dur, Bus: int(e.Bus), Proc: int(e.Proc),
		Col: int(e.Col), Op: e.Op.String(), Addr: e.Addr, Retries: int(e.Retries),
		Phases: [NumPhases]int64{
			PhaseArb: e.ArbNS, PhaseAddr: e.AddrNS, PhaseData: e.DataNS,
			PhaseIntervention: e.IntvNS, PhaseMemory: e.MemNS, PhaseRetry: e.RetryNS,
		},
	}, true
}
