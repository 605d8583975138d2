package litmus

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"futurebus/internal/sim"
)

// Parse reads a litmus script. The grammar is line-oriented:
//
//	name: <free text>
//	boards: <protocol>[, <protocol>…]        # ".s4" suffix = sector cache
//	linesize: <bytes>                        # optional, default 32; see sim.CheckLineSize
//	addr <Name> = <line address>
//	proc <PName>:
//	  write <Line>[<word>] <value>
//	  read  <Line>[<word>] -> <reg>
//	  fetchadd <Line>[<word>] <delta> -> <reg>
//	  flush <Line>
//	  pass <Line>
//	schedules: <n>                           # optional, default 32; not negative
//	assert <always|sometimes|never> <operand> <==|!=> <operand>
//	assert consistent
//
// Operands: a register (bare or P-qualified), `final mem
// <Line>[<word>]`, or an integer literal. '#' starts a comment.
func Parse(r io.Reader) (*Test, error) {
	t := &Test{
		Addrs:     map[string]uint64{},
		Sector:    map[int]int{},
		Schedules: 32,
		LineSize:  32,
	}
	var cur *Program
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		indented := strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")
		if err := t.parseLine(trimmed, indented, &cur); err != nil {
			return nil, fmt.Errorf("litmus line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Late-resolve bare register names in assertions.
	for i := range t.Assertions {
		a := &t.Assertions[i]
		if a.Consistent {
			continue
		}
		ops := []*Operand{&a.Cond.Left, &a.Cond.Right}
		if a.Premise != nil {
			ops = append(ops, &a.Premise.Left, &a.Premise.Right)
		}
		for _, op := range ops {
			if op.Reg == "" {
				continue
			}
			full, err := t.resolveReg(op.Reg)
			if err != nil {
				return nil, fmt.Errorf("litmus: %s: %w", a.Src, err)
			}
			op.Reg = full
		}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseString parses a script held in a string.
func ParseString(s string) (*Test, error) { return Parse(strings.NewReader(s)) }

func (t *Test) parseLine(line string, indented bool, cur **Program) error {
	if indented && *cur != nil {
		op, err := parseOp(line)
		if err != nil {
			return err
		}
		(*cur).Ops = append((*cur).Ops, op)
		return nil
	}
	*cur = nil
	switch {
	case strings.HasPrefix(line, "name:"):
		t.Name = strings.TrimSpace(strings.TrimPrefix(line, "name:"))
	case strings.HasPrefix(line, "boards:"):
		for i, b := range strings.Split(strings.TrimPrefix(line, "boards:"), ",") {
			name := strings.TrimSpace(b)
			if base, subs, ok := strings.Cut(name, ".s"); ok {
				n, err := strconv.Atoi(subs)
				if err != nil {
					return fmt.Errorf("bad sector suffix in %q", name)
				}
				name = base
				t.Sector[i] = n
			}
			t.Boards = append(t.Boards, name)
		}
	case strings.HasPrefix(line, "linesize:"):
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "linesize:")))
		if err != nil {
			return err
		}
		if err := sim.CheckLineSize(n); err != nil {
			return err
		}
		t.LineSize = n
	case strings.HasPrefix(line, "schedules:"):
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "schedules:")))
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("schedules: %d is negative", n)
		}
		t.Schedules = n
	case strings.HasPrefix(line, "addr "):
		rest := strings.TrimPrefix(line, "addr ")
		name, val, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("malformed addr declaration %q", line)
		}
		addr, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
		if err != nil {
			return err
		}
		t.Addrs[strings.TrimSpace(name)] = addr
	case strings.HasPrefix(line, "proc "):
		name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "proc ")), ":")
		t.Programs = append(t.Programs, Program{Name: name})
		*cur = &t.Programs[len(t.Programs)-1]
	case strings.HasPrefix(line, "assert "):
		a, err := t.parseAssert(strings.TrimPrefix(line, "assert "))
		if err != nil {
			return err
		}
		a.Src = line
		t.Assertions = append(t.Assertions, a)
	default:
		return fmt.Errorf("unrecognised line %q", line)
	}
	return nil
}

// parseLoc parses "Line[word]".
func parseLoc(s string) (string, int, error) {
	name, rest, ok := strings.Cut(s, "[")
	if !ok || !strings.HasSuffix(rest, "]") {
		return "", 0, fmt.Errorf("malformed location %q (want Line[word])", s)
	}
	w, err := strconv.Atoi(strings.TrimSuffix(rest, "]"))
	if err != nil {
		return "", 0, err
	}
	return name, w, nil
}

func parseOp(line string) (Op, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("empty op")
	}
	switch fields[0] {
	case "write":
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("write wants: write Line[word] value")
		}
		line, w, err := parseLoc(fields[1])
		if err != nil {
			return Op{}, err
		}
		v, err := strconv.ParseUint(fields[2], 0, 32)
		if err != nil {
			return Op{}, err
		}
		return Op{Write: true, Line: line, Word: w, Value: uint32(v)}, nil
	case "read":
		if len(fields) != 4 || fields[2] != "->" {
			return Op{}, fmt.Errorf("read wants: read Line[word] -> reg")
		}
		line, w, err := parseLoc(fields[1])
		if err != nil {
			return Op{}, err
		}
		return Op{Line: line, Word: w, Reg: fields[3]}, nil
	case "fetchadd":
		if len(fields) != 5 || fields[3] != "->" {
			return Op{}, fmt.Errorf("fetchadd wants: fetchadd Line[word] delta -> reg")
		}
		line, w, err := parseLoc(fields[1])
		if err != nil {
			return Op{}, err
		}
		v, err := strconv.ParseUint(fields[2], 0, 32)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: "fetchadd", Line: line, Word: w, Value: uint32(v), Reg: fields[4]}, nil
	case "flush", "pass":
		if len(fields) != 2 {
			return Op{}, fmt.Errorf("%s wants a line name", fields[0])
		}
		return Op{Kind: fields[0], Line: fields[1]}, nil
	}
	return Op{}, fmt.Errorf("unknown op %q", fields[0])
}

func (t *Test) parseAssert(rest string) (Assertion, error) {
	rest = strings.TrimSpace(rest)
	if rest == "consistent" {
		return Assertion{Consistent: true}, nil
	}
	kindStr, cond, ok := strings.Cut(rest, " ")
	if !ok {
		return Assertion{}, fmt.Errorf("malformed assertion %q", rest)
	}
	var kind AssertKind
	switch kindStr {
	case "always":
		kind = Always
	case "sometimes":
		kind = Sometimes
	case "never":
		kind = Never
	default:
		return Assertion{}, fmt.Errorf("unknown quantifier %q", kindStr)
	}
	a := Assertion{Kind: kind}
	cond = strings.TrimSpace(cond)
	if rest, ok := strings.CutPrefix(cond, "if "); ok {
		premiseStr, condStr, found := strings.Cut(rest, " then ")
		if !found {
			return Assertion{}, fmt.Errorf("implication %q needs 'then'", cond)
		}
		premise, err := parseComparison(premiseStr)
		if err != nil {
			return Assertion{}, err
		}
		a.Premise = &premise
		cond = condStr
	}
	c, err := parseComparison(cond)
	if err != nil {
		return Assertion{}, err
	}
	a.Cond = c
	if a.Premise != nil && a.Kind == Never {
		// A vacuously-true implication satisfies "never"'s inner
		// condition in every schedule where the premise is false, which
		// is certainly not what the author meant.
		return Assertion{}, fmt.Errorf("'never if P then C' is a footgun (vacuous truth); write 'always if P then <negation of C>'")
	}
	return a, nil
}

func parseComparison(cond string) (Comparison, error) {
	eq := true
	lhs, rhs, ok := strings.Cut(cond, "==")
	if !ok {
		lhs, rhs, ok = strings.Cut(cond, "!=")
		eq = false
	}
	if !ok {
		return Comparison{}, fmt.Errorf("comparison %q needs == or !=", cond)
	}
	left, err := parseOperand(strings.TrimSpace(lhs))
	if err != nil {
		return Comparison{}, err
	}
	right, err := parseOperand(strings.TrimSpace(rhs))
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Left: left, Eq: eq, Right: right}, nil
}

func parseOperand(s string) (Operand, error) {
	if rest, ok := strings.CutPrefix(s, "final mem "); ok {
		line, w, err := parseLoc(strings.TrimSpace(rest))
		if err != nil {
			return Operand{}, err
		}
		return Operand{Mem: true, Line: line, Word: w}, nil
	}
	if v, err := strconv.ParseUint(s, 0, 32); err == nil {
		return Operand{Lit: uint32(v)}, nil
	}
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	return Operand{Reg: s}, nil
}
