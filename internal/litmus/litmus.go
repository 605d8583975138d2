// Package litmus runs directed coherence tests — litmus tests — against
// the simulated Futurebus. A test is a small script: a set of boards, a
// few named lines, one straight-line program per processor, and
// assertions evaluated over many interleavings:
//
//	name: store buffering is impossible on one location
//	boards: moesi, dragon
//	addr X = 0x10
//
//	proc P0:
//	  write X[0] 1
//	  read  X[0] -> a
//	proc P1:
//	  write X[0] 2
//	  read  X[0] -> b
//
//	schedules: 64
//	assert always a != 0
//	assert sometimes b == 1
//	assert never final mem X[0] == 0
//	assert consistent
//
// Every schedule interleaves the programs differently (two sequential
// extremes plus seeded random interleavings), runs on a fresh system,
// records the registers, and optionally checks the full §3.1 invariant
// suite. `always` must hold in every schedule, `sometimes` in at least
// one, `never` in none — the standard litmus vocabulary.
//
// Coherence (per-location ordering) is exactly what the MOESI class
// guarantees, so single-location tests must behave sequentially;
// multi-location tests document what a snooping bus does and does not
// order.
package litmus

import (
	"fmt"
	"strings"
)

// Op is one program step.
type Op struct {
	// Write: store Value to Line[Word]. Otherwise a load into Reg.
	Write bool
	Line  string
	Word  int
	Value uint32
	Reg   string
	// Kind selects special steps: "", "flush", "pass", "fetchadd".
	Kind string
}

func (o Op) String() string {
	switch o.Kind {
	case "flush":
		return fmt.Sprintf("flush %s", o.Line)
	case "pass":
		return fmt.Sprintf("pass %s", o.Line)
	case "fetchadd":
		return fmt.Sprintf("fetchadd %s[%d] %d -> %s", o.Line, o.Word, o.Value, o.Reg)
	}
	if o.Write {
		return fmt.Sprintf("write %s[%d] %d", o.Line, o.Word, o.Value)
	}
	return fmt.Sprintf("read %s[%d] -> %s", o.Line, o.Word, o.Reg)
}

// Program is one processor's straight-line op sequence.
type Program struct {
	Name string
	Ops  []Op
}

// AssertKind is the quantifier of an assertion over schedules.
type AssertKind uint8

const (
	// Always: the condition holds in every schedule.
	Always AssertKind = iota
	// Sometimes: the condition holds in at least one schedule.
	Sometimes
	// Never: the condition holds in no schedule.
	Never
)

func (k AssertKind) String() string {
	switch k {
	case Always:
		return "always"
	case Sometimes:
		return "sometimes"
	case Never:
		return "never"
	}
	return fmt.Sprintf("AssertKind(%d)", uint8(k))
}

// Operand is one side of an assertion comparison: a register, a final
// memory word, or a literal.
type Operand struct {
	// Reg, when non-empty, names a register ("P0.a" or a bare register
	// name unique across programs).
	Reg string
	// Mem, when true, reads the final memory image of Line[Word].
	Mem  bool
	Line string
	Word int
	// Lit is the literal value (when Reg == "" and !Mem).
	Lit uint32
}

// Comparison is one predicate over registers, final memory and
// literals.
type Comparison struct {
	Left Operand
	// Eq: "==" when true, "!=" otherwise.
	Eq    bool
	Right Operand
}

// Assertion is one condition checked across schedules.
type Assertion struct {
	Kind AssertKind
	// Consistent, when true, ignores the comparison and instead
	// requires the §3.1 invariant checker to pass (it is checked per
	// schedule and must ALWAYS hold; Kind is ignored).
	Consistent bool
	// Premise, when non-nil, makes the assertion an implication:
	// "if premise then cond" ("assert always if f == 1 then d == 42").
	Premise *Comparison
	Cond    Comparison
	// Src is the source line, for messages.
	Src string
}

// Test is a parsed litmus test.
type Test struct {
	Name   string
	Boards []string
	// Sector maps a board index to a sub-sector count (0 = plain).
	Sector map[int]int
	// Addrs maps line names to line addresses.
	Addrs    map[string]uint64
	Programs []Program
	// Schedules is the number of random interleavings (in addition to
	// the sequential extremes).
	Schedules  int
	Assertions []Assertion
	// LineSize in bytes (default 32).
	LineSize int
	// Shards runs the test on an N-shard interleaved fabric (0/1 =
	// single bus). Litmus outcomes must not depend on it: the fabric
	// serialises per line, which is all the assertions ever observe.
	Shards int
	// Tenure and Discipline select the bus tenure policy ("" or
	// "atomic", "split") and arbitration discipline ("" or "fcfs",
	// "rr", "priority", "bounded") for every system the test builds.
	// Litmus outcomes must not depend on either — they change timing,
	// never the memory image. Set by the harness (fbpaper litmus
	// -bus/-discipline), not a file directive.
	Tenure     string
	Discipline string
	// Watch attaches the runtime invariant monitor to every schedule;
	// any violation fails the run outright (the simulator, not the
	// test, is broken).
	Watch bool
}

// registers returns every register name a test assigns.
func (t *Test) registers() map[string]bool {
	out := map[string]bool{}
	for _, p := range t.Programs {
		for _, op := range p.Ops {
			if op.Reg != "" {
				out[p.Name+"."+op.Reg] = true
			}
		}
	}
	return out
}

// validate cross-checks references.
func (t *Test) validate() error {
	if len(t.Programs) == 0 {
		return fmt.Errorf("litmus %s: no programs", t.Name)
	}
	if len(t.Boards) < len(t.Programs) {
		return fmt.Errorf("litmus %s: %d programs but %d boards", t.Name, len(t.Programs), len(t.Boards))
	}
	regs := t.registers()
	for _, p := range t.Programs {
		for _, op := range p.Ops {
			if _, ok := t.Addrs[op.Line]; !ok {
				return fmt.Errorf("litmus %s: %s uses undeclared line %q", t.Name, p.Name, op.Line)
			}
		}
	}
	for _, a := range t.Assertions {
		if a.Consistent {
			continue
		}
		operands := []Operand{a.Cond.Left, a.Cond.Right}
		if a.Premise != nil {
			operands = append(operands, a.Premise.Left, a.Premise.Right)
		}
		for _, o := range operands {
			if o.Reg != "" && !regs[o.Reg] {
				return fmt.Errorf("litmus %s: assertion %q uses unknown register %q", t.Name, a.Src, o.Reg)
			}
			if o.Mem {
				if _, ok := t.Addrs[o.Line]; !ok {
					return fmt.Errorf("litmus %s: assertion %q uses undeclared line %q", t.Name, a.Src, o.Line)
				}
			}
		}
	}
	return nil
}

// resolveReg finds the full register name for a possibly-bare name.
func (t *Test) resolveReg(name string) (string, error) {
	if strings.Contains(name, ".") {
		return name, nil
	}
	var matches []string
	for reg := range t.registers() {
		if strings.HasSuffix(reg, "."+name) {
			matches = append(matches, reg)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("unknown register %q", name)
	default:
		return "", fmt.Errorf("register %q is ambiguous (%v); qualify as P<i>.%s", name, matches, name)
	}
}
