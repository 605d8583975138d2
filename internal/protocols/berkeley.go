package protocols

import "futurebus/internal/core"

// Berkeley returns the Berkeley protocol of the paper's Table 3 (the
// SPUR consistency scheme [Katz85], with CH generated for class
// compatibility) extended to the full Futurebus event set (invalidate
// style) and wrapped in a preferred-choice policy. Its states map into
// M, O, S and I; there is no E state. The Futurebus facilities are
// sufficient to implement it unmodified — it is a class member (§4.1).
func Berkeley() core.Policy { return berkeley() }

var berkeley = shared(func() core.Policy {
	t := Extend(core.PaperTable3(), StyleInvalidate)
	t.Name = "Berkeley"
	return NewPreferred("Berkeley", core.CopyBack, mustInClass(t, core.CopyBack))
})
