package litmus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
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

// ErrSystem marks a test whose system sim.New rejects (say, a shard
// count its caches cannot interleave over): an input error, not a
// failed check. Run and RunParallel wrap it.
var ErrSystem = errors.New("cannot build its system")

// Run executes the test: the two sequential extremes plus
// Test.Schedules seeded random interleavings, each on a fresh system,
// and evaluates the assertions over all outcomes.
func Run(t *Test) (*Result, error) {
	res := &Result{Test: t, Witness: map[string]int{}}
	seen := map[int]bool{}
	res.Schedules = t.Schedules + 2
	for sched := 0; sched < res.Schedules; sched++ {
		regs, mem, consistent, err := runOnce(t, sched)
		if err != nil {
			return nil, err
		}
		res.judge("schedule", sched, regs, mem, consistent, seen)
	}
	for ai, a := range t.Assertions {
		if !a.Consistent && a.Kind == Sometimes && !seen[ai] {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%q never held over %d schedules", a.Src, res.Schedules))
		}
	}
	return res, nil
}

// judge checks every assertion against the outcome of schedule or round
// n: an always that fails, a never that holds or a consistency
// violation is a failure; a sometimes that holds is marked in seen,
// with n as its witness. A nil seen skips the sometimes assertions.
func (r *Result) judge(unit string, n int, regs map[string]uint32, mem map[string]map[int]uint32, consistent error, seen map[int]bool) {
	for ai, a := range r.Test.Assertions {
		switch {
		case a.Consistent:
			if consistent != nil {
				r.Failures = append(r.Failures, fmt.Sprintf("%s %d: consistency violated: %v", unit, n, consistent))
			}
		case a.Kind == Sometimes:
			if seen != nil && !seen[ai] && evalAssertion(r.Test, a, regs, mem) {
				seen[ai] = true
				r.Witness[a.Src] = n
			}
		case a.Kind == Always && !evalAssertion(r.Test, a, regs, mem):
			r.Failures = append(r.Failures,
				fmt.Sprintf("%s %d: %q does not hold (%s)", unit, n, a.Src, describeEnv(a, regs, mem)))
		case a.Kind == Never && evalAssertion(r.Test, a, regs, mem):
			r.Failures = append(r.Failures,
				fmt.Sprintf("%s %d: %q holds but must never (%s)", unit, n, a.Src, describeEnv(a, regs, mem)))
		}
	}
}

// system builds the fresh system one schedule or round runs on: the
// test's boards on the harness's fabric, with the golden shadow, and
// with the runtime invariant monitor on its own recorder when Watch is
// set (mon and rec are nil otherwise; outcome closes rec). Paranoid
// validates every snoop response against the class. A system sim.New
// rejects is an ErrSystem.
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
	if err != nil {
		rec.Close()
		return nil, nil, nil, fmt.Errorf("litmus %s: %w: %w", t.Name, ErrSystem, err)
	}
	return sys, mon, rec, nil
}

// order returns schedule sched's interleaving, as the program index of
// each op in turn: schedule 0 runs the programs in order, schedule 1 in
// reverse, the rest draw the next program at random.
func (t *Test) order(sched int) []int {
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
	return order
}

// master is the processor side of a cache.Cache: sim.New builds every
// board as one, a non-caching board included, so every board takes
// every op.
type master interface {
	sim.Board
	FetchAdd(addr bus.Addr, word int, delta uint32) (uint32, error)
	Flush(addr bus.Addr) error
	Pass(addr bus.Addr) error
}

// step runs one op on a board and returns the value it loads into its
// register (reads and fetchadds).
func (t *Test) step(b sim.Board, op Op) (v uint32, err error) {
	m := b.(master)
	addr := bus.Addr(t.Addrs[op.Line])
	switch op.Kind {
	case "flush":
		err = m.Flush(addr)
	case "pass":
		err = m.Pass(addr)
	case "fetchadd":
		v, err = m.FetchAdd(addr, op.Word, op.Value)
	default:
		if op.Write {
			err = m.Write(addr, op.Word, op.Value)
		} else {
			v, err = m.Read(addr, op.Word)
		}
	}
	return v, err
}

// cleaner is the master id outcome's clean commands carry: a controller
// that is no board.
const cleaner = 1 << 20

// outcome settles a finished run. A clean command on each declared line
// makes any owner push it, copies surviving, so memory holds the image
// outcome then reads; then it closes the monitor's recorder and takes
// the checker's verdict. A monitor violation is an error, since the
// simulator, not the test, is broken.
func (t *Test) outcome(sys *sim.System, mon *watch.Monitor, rec *obs.Recorder) (map[string]map[int]uint32, error, error) {
	mem := map[string]map[int]uint32{}
	for name, lineAddr := range t.Addrs {
		if err := cache.CleanLine(sys.Bus, cleaner, bus.Addr(lineAddr)); err != nil {
			return nil, nil, errors.Join(err, rec.Close())
		}
		words := map[int]uint32{}
		line := sys.Memory.Peek(bus.Addr(lineAddr))
		for w := 0; w*4 < len(line); w++ {
			words[w] = binary.LittleEndian.Uint32(line[w*4:])
		}
		mem[name] = words
	}
	if err := rec.Close(); err != nil {
		return nil, nil, err
	}
	if mon != nil {
		if rep := mon.Report(); rep.Total != 0 {
			return nil, nil, fmt.Errorf("invariant monitor: %s", rep.Summary())
		}
	}
	return mem, sys.Check(), nil
}

// runOnce executes one schedule and returns the register file, the
// final memory view of the declared lines, and the consistency verdict.
func runOnce(t *Test, sched int) (map[string]uint32, map[string]map[int]uint32, error, error) {
	sys, mon, rec, err := t.system(true)
	if err != nil {
		return nil, nil, nil, err
	}
	regs := map[string]uint32{}
	pcs := make([]int, len(t.Programs))
	for _, pi := range t.order(sched) {
		p := &t.Programs[pi]
		op := p.Ops[pcs[pi]]
		pcs[pi]++
		v, err := t.step(sys.Boards[pi], op)
		if err != nil {
			return nil, nil, nil, errors.Join(fmt.Errorf("litmus %s schedule %d: %s %s: %w", t.Name, sched, p.Name, op, err), rec.Close())
		}
		if op.Reg != "" {
			regs[p.Name+"."+op.Reg] = v
		}
	}
	mem, consistent, err := t.outcome(sys, mon, rec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("litmus %s schedule %d: %w", t.Name, sched, err)
	}
	return regs, mem, consistent, nil
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
		regs, mem, consistent, err := runParallelOnce(t, round)
		if err != nil {
			return nil, err
		}
		res.judge("round", round, regs, mem, consistent, nil)
	}
	return res, nil
}

func runParallelOnce(t *Test, round int) (map[string]uint32, map[string]map[int]uint32, error, error) {
	sys, mon, rec, err := t.system(false)
	if err != nil {
		return nil, nil, nil, err
	}
	// Each program loads into its own register file; they merge once
	// every program is done.
	files := make([]map[string]uint32, len(t.Programs))
	errs := make([]error, len(t.Programs))
	var wg sync.WaitGroup
	for pi := range t.Programs {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := &t.Programs[pi]
			files[pi] = map[string]uint32{}
			for _, op := range p.Ops {
				v, err := t.step(sys.Boards[pi], op)
				if err != nil {
					errs[pi] = fmt.Errorf("litmus %s round %d: %s %s: %w", t.Name, round, p.Name, op, err)
					return
				}
				if op.Reg != "" {
					files[pi][p.Name+"."+op.Reg] = v
				}
			}
		}(pi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, errors.Join(err, rec.Close())
	}
	regs := map[string]uint32{}
	for _, f := range files {
		maps.Copy(regs, f)
	}
	mem, consistent, err := t.outcome(sys, mon, rec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("litmus %s round %d: %w", t.Name, round, err)
	}
	return regs, mem, consistent, nil
}
