package litmus

import (
	"fmt"
	"strings"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// Result is the outcome of running a test over all its schedules.
type Result struct {
	Test      *Test
	Schedules int
	// Failures lists every assertion breach, with the schedule that
	// produced it where applicable.
	Failures []string
	// Witness maps "sometimes" assertions to a schedule that satisfied
	// them (diagnostics).
	Witness map[string]int
}

// Ok reports whether every assertion held.
func (r *Result) Ok() bool { return len(r.Failures) == 0 }

func (r *Result) String() string {
	if r.Ok() {
		return fmt.Sprintf("%s: PASS (%d schedules)", r.Test.Name, r.Schedules)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: FAIL (%d schedules)", r.Test.Name, r.Schedules)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}

// Run executes the test: the two sequential extremes plus
// Test.Schedules seeded random interleavings, each on a fresh system,
// and evaluates the assertions over all outcomes.
func Run(t *Test) (*Result, error) {
	res := &Result{Test: t, Witness: map[string]int{}}
	sometimesSeen := map[int]bool{}

	schedules := t.Schedules + 2
	res.Schedules = schedules
	for sched := 0; sched < schedules; sched++ {
		regs, mem, consistentErr, err := runOnce(t, sched)
		if err != nil {
			return nil, err
		}
		for ai, a := range t.Assertions {
			if a.Consistent {
				if consistentErr != nil {
					res.Failures = append(res.Failures,
						fmt.Sprintf("schedule %d: consistency violated: %v", sched, consistentErr))
				}
				continue
			}
			holds := evalAssertion(t, a, regs, mem)
			switch a.Kind {
			case Always:
				if !holds {
					res.Failures = append(res.Failures,
						fmt.Sprintf("schedule %d: %q does not hold (%s)", sched, a.Src, describeEnv(a, regs, mem)))
				}
			case Never:
				if holds {
					res.Failures = append(res.Failures,
						fmt.Sprintf("schedule %d: %q holds but must never (%s)", sched, a.Src, describeEnv(a, regs, mem)))
				}
			case Sometimes:
				if holds && !sometimesSeen[ai] {
					sometimesSeen[ai] = true
					res.Witness[a.Src] = sched
				}
			}
		}
	}
	for ai, a := range t.Assertions {
		if !a.Consistent && a.Kind == Sometimes && !sometimesSeen[ai] {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%q never held over %d schedules", a.Src, schedules))
		}
	}
	return res, nil
}

// system builds the fresh system one schedule or round runs on: the
// test's boards on the harness's fabric, with the golden shadow, and
// with the runtime invariant monitor on its own recorder when Watch is
// set (mon and rec are nil otherwise; the caller closes rec). Paranoid
// validates every snoop response against the class.
func (t *Test) system(paranoid bool) (sys *sim.System, mon *watch.Monitor, rec *obs.Recorder, err error) {
	boards := make([]sim.BoardSpec, len(t.Boards))
	for i, name := range t.Boards {
		boards[i] = sim.BoardSpec{Protocol: name, SectorSubs: t.Sector[i]}
	}
	if t.Watch {
		mon = watch.New(watch.Config{})
		rec = obs.New(mon)
	}
	sys, err = sim.New(sim.Config{
		LineSize:   t.LineSize,
		Boards:     boards,
		Shadow:     true,
		Paranoid:   paranoid,
		Shards:     t.Shards,
		Tenure:     t.Tenure,
		Discipline: t.Discipline,
		Obs:        rec,
	})
	if err != nil && rec != nil {
		rec.Close()
	}
	return sys, mon, rec, err
}

// runOnce executes one schedule and returns the register file, the
// final memory view of the declared lines, and the consistency verdict.
func runOnce(t *Test, sched int) (map[string]uint32, map[string]map[int]uint32, error, error) {
	sys, mon, rec, err := t.system(true)
	if err != nil {
		return nil, nil, nil, err
	}

	// Build the interleaving: schedule 0 runs programs in order,
	// schedule 1 in reverse, the rest draw the next program at random.
	var order []int
	remaining := make([]int, len(t.Programs))
	total := 0
	for i, p := range t.Programs {
		remaining[i] = len(p.Ops)
		total += len(p.Ops)
	}
	rng := workload.NewRNG(uint64(sched)*0x9e3779b9 + 7)
	pick := func() int {
		switch sched {
		case 0:
			for i, r := range remaining {
				if r > 0 {
					return i
				}
			}
		case 1:
			for i := len(remaining) - 1; i >= 0; i-- {
				if remaining[i] > 0 {
					return i
				}
			}
		}
		for {
			i := rng.Intn(len(remaining))
			if remaining[i] > 0 {
				return i
			}
		}
	}
	for len(order) < total {
		i := pick()
		order = append(order, i)
		remaining[i]--
	}

	regs := map[string]uint32{}
	pcs := make([]int, len(t.Programs))
	for _, pi := range order {
		p := &t.Programs[pi]
		op := p.Ops[pcs[pi]]
		pcs[pi]++
		board := sys.Boards[pi]
		addr := bus.Addr(t.Addrs[op.Line])
		switch op.Kind {
		case "flush", "pass":
			c, ok := board.(interface {
				Flush(bus.Addr) error
				Pass(bus.Addr) error
			})
			if !ok {
				return nil, nil, nil, fmt.Errorf("litmus %s: board %d cannot %s", t.Name, pi, op.Kind)
			}
			if op.Kind == "flush" {
				err = c.Flush(addr)
			} else {
				err = c.Pass(addr)
			}
		case "fetchadd":
			c, ok := board.(interface {
				FetchAdd(bus.Addr, int, uint32) (uint32, error)
			})
			if !ok {
				return nil, nil, nil, fmt.Errorf("litmus %s: board %d cannot fetchadd", t.Name, pi)
			}
			var old uint32
			old, err = c.FetchAdd(addr, op.Word, op.Value)
			regs[p.Name+"."+op.Reg] = old
		default:
			if op.Write {
				err = board.Write(addr, op.Word, op.Value)
			} else {
				var v uint32
				v, err = board.Read(addr, op.Word)
				regs[p.Name+"."+op.Reg] = v
			}
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("litmus %s schedule %d: %s %s: %w", t.Name, sched, p.Name, op, err)
		}
	}

	// Final memory view: flush every board's copies so memory holds the
	// image, then read the declared lines.
	memView := map[string]map[int]uint32{}
	for name, lineAddr := range t.Addrs {
		// A clean command forces any owner to push without disturbing
		// copies.
		if err := cleanAll(sys, bus.Addr(lineAddr)); err != nil {
			return nil, nil, nil, err
		}
		words := map[int]uint32{}
		line := sys.Memory.Peek(bus.Addr(lineAddr))
		for w := 0; w*4 < len(line); w++ {
			words[w] = uint32(line[w*4]) | uint32(line[w*4+1])<<8 |
				uint32(line[w*4+2])<<16 | uint32(line[w*4+3])<<24
		}
		memView[name] = words
	}

	if rec != nil {
		if err := rec.Close(); err != nil {
			return nil, nil, nil, err
		}
		if rep := mon.Report(); rep.Total != 0 {
			return nil, nil, nil, fmt.Errorf("litmus %s schedule %d: invariant monitor: %s",
				t.Name, sched, rep.Summary())
		}
	}
	return regs, memView, sys.Checker().MustPass(), nil
}

// cleanAll issues CmdClean from a controller id: any owner pushes the
// line so memory holds the image, copies survive.
func cleanAll(sys *sim.System, addr bus.Addr) error {
	_, err := sys.Bus.Execute(bus.Transaction{
		MasterID: 1 << 20,
		Cmd:      bus.CmdClean,
		Op:       core.BusAddrOnly,
		Addr:     addr,
	})
	return err
}

func evalOperand(t *Test, o Operand, regs map[string]uint32, mem map[string]map[int]uint32) uint32 {
	switch {
	case o.Reg != "":
		return regs[o.Reg]
	case o.Mem:
		return mem[o.Line][o.Word]
	default:
		return o.Lit
	}
}

func evalComparison(t *Test, c Comparison, regs map[string]uint32, mem map[string]map[int]uint32) bool {
	l := evalOperand(t, c.Left, regs, mem)
	r := evalOperand(t, c.Right, regs, mem)
	if c.Eq {
		return l == r
	}
	return l != r
}

func evalAssertion(t *Test, a Assertion, regs map[string]uint32, mem map[string]map[int]uint32) bool {
	if a.Premise != nil && !evalComparison(t, *a.Premise, regs, mem) {
		return true // implication with a false premise holds vacuously
	}
	return evalComparison(t, a.Cond, regs, mem)
}

func describeEnv(a Assertion, regs map[string]uint32, mem map[string]map[int]uint32) string {
	var parts []string
	operands := []Operand{a.Cond.Left, a.Cond.Right}
	if a.Premise != nil {
		operands = append(operands, a.Premise.Left, a.Premise.Right)
	}
	for _, o := range operands {
		switch {
		case o.Reg != "":
			parts = append(parts, fmt.Sprintf("%s=%d", o.Reg, regs[o.Reg]))
		case o.Mem:
			parts = append(parts, fmt.Sprintf("mem %s[%d]=%d", o.Line, o.Word, mem[o.Line][o.Word]))
		}
	}
	return strings.Join(parts, ", ")
}

// RunParallel executes the programs as real goroutines (no scripted
// interleaving) `rounds` times: scheduling comes from the Go runtime,
// so under `go test -race` this doubles as a race hunt through the
// litmus scenarios. Only schedule-independent assertions are checked
// ("always" implications, "never", and per-round consistency);
// "sometimes" needs controlled schedules and is skipped.
func RunParallel(t *Test, rounds int) (*Result, error) {
	res := &Result{Test: t, Schedules: rounds, Witness: map[string]int{}}
	for round := 0; round < rounds; round++ {
		regs, mem, consistentErr, err := runParallelOnce(t, round)
		if err != nil {
			return nil, err
		}
		for _, a := range t.Assertions {
			if a.Consistent {
				if consistentErr != nil {
					res.Failures = append(res.Failures,
						fmt.Sprintf("round %d: consistency violated: %v", round, consistentErr))
				}
				continue
			}
			if a.Kind == Sometimes {
				continue
			}
			holds := evalAssertion(t, a, regs, mem)
			if a.Kind == Always && !holds {
				res.Failures = append(res.Failures,
					fmt.Sprintf("round %d: %q does not hold (%s)", round, a.Src, describeEnv(a, regs, mem)))
			}
			if a.Kind == Never && holds {
				res.Failures = append(res.Failures,
					fmt.Sprintf("round %d: %q holds but must never (%s)", round, a.Src, describeEnv(a, regs, mem)))
			}
		}
	}
	return res, nil
}

func runParallelOnce(t *Test, round int) (map[string]uint32, map[string]map[int]uint32, error, error) {
	sys, mon, rec, err := t.system(false)
	if err != nil {
		return nil, nil, nil, err
	}
	type regWrite struct {
		name string
		val  uint32
	}
	results := make(chan regWrite, 64)
	errs := make([]error, len(t.Programs))
	var wg sync.WaitGroup
	for pi := range t.Programs {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := &t.Programs[pi]
			board := sys.Boards[pi]
			for _, op := range p.Ops {
				addr := bus.Addr(t.Addrs[op.Line])
				var err error
				switch op.Kind {
				case "flush", "pass":
					c, ok := board.(interface {
						Flush(bus.Addr) error
						Pass(bus.Addr) error
					})
					if !ok {
						err = fmt.Errorf("board %d cannot %s", pi, op.Kind)
					} else if op.Kind == "flush" {
						err = c.Flush(addr)
					} else {
						err = c.Pass(addr)
					}
				case "fetchadd":
					c, ok := board.(interface {
						FetchAdd(bus.Addr, int, uint32) (uint32, error)
					})
					if !ok {
						err = fmt.Errorf("board %d cannot fetchadd", pi)
					} else {
						var old uint32
						old, err = c.FetchAdd(addr, op.Word, op.Value)
						results <- regWrite{p.Name + "." + op.Reg, old}
					}
				default:
					if op.Write {
						err = board.Write(addr, op.Word, op.Value)
					} else {
						var v uint32
						v, err = board.Read(addr, op.Word)
						results <- regWrite{p.Name + "." + op.Reg, v}
					}
				}
				if err != nil {
					errs[pi] = err
					return
				}
			}
		}(pi)
	}
	wg.Wait()
	close(results)
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	regs := map[string]uint32{}
	for rw := range results {
		regs[rw.name] = rw.val
	}

	memView := map[string]map[int]uint32{}
	for name, lineAddr := range t.Addrs {
		if err := cleanAll(sys, bus.Addr(lineAddr)); err != nil {
			return nil, nil, nil, err
		}
		words := map[int]uint32{}
		line := sys.Memory.Peek(bus.Addr(lineAddr))
		for w := 0; w*4 < len(line); w++ {
			words[w] = uint32(line[w*4]) | uint32(line[w*4+1])<<8 |
				uint32(line[w*4+2])<<16 | uint32(line[w*4+3])<<24
		}
		memView[name] = words
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return nil, nil, nil, err
		}
		if rep := mon.Report(); rep.Total != 0 {
			return nil, nil, nil, fmt.Errorf("litmus %s round %d: invariant monitor: %s",
				t.Name, round, rep.Summary())
		}
	}
	return regs, memView, sys.Checker().MustPass(), nil
}
