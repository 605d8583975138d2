package sim

import (
	"strconv"
	"strings"
	"testing"
)

// smallOpts keeps experiment tests fast while preserving the shapes.
func smallOpts() ExperimentOpts { return ExperimentOpts{RefsPerProc: 4000, Seed: 1986} }

// column returns a named column's values as floats.
func column(t *testing.T, rep *Report, name string) []float64 {
	t.Helper()
	idx := -1
	for i, c := range rep.Columns {
		if c == name {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("%s: no column %q in %v", rep.ID, name, rep.Columns)
	}
	var out []float64
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			t.Fatalf("%s: cell %q: %v", rep.ID, row[idx], err)
		}
		out = append(out, v)
	}
	return out
}

// rowsWhere filters report rows by a column value.
func rowsWhere(rep *Report, col int, val string) [][]string {
	var out [][]string
	for _, row := range rep.Rows {
		if row[col] == val {
			out = append(out, row)
		}
	}
	return out
}

// TestP2UpdateBeatsInvalidateOnProducerConsumer verifies the §5.2 shape
// on the separating workloads.
func TestP2UpdateBeatsInvalidateOnProducerConsumer(t *testing.T) {
	rep, err := UpdateVsInvalidate(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	find := func(workload, protocol string) []string {
		for _, row := range rep.Rows {
			if row[0] == workload && row[1] == protocol {
				return row
			}
		}
		t.Fatalf("no row for %s/%s", workload, protocol)
		return nil
	}
	bytesCol := 4
	for _, wl := range []string{"producer-consumer", "ping-pong"} {
		upd, _ := strconv.ParseFloat(find(wl, "moesi")[bytesCol], 64)
		inv, _ := strconv.ParseFloat(find(wl, "moesi-invalidate")[bytesCol], 64)
		if upd >= inv {
			t.Errorf("%s: update bytes/ref %.2f not below invalidate %.2f", wl, upd, inv)
		}
	}
	// Invalidate wins migratory on efficiency.
	effCol := 5
	upd, _ := strconv.ParseFloat(find("migratory", "moesi")[effCol], 64)
	inv, _ := strconv.ParseFloat(find("migratory", "moesi-invalidate")[effCol], 64)
	if inv <= upd {
		t.Errorf("migratory: invalidate efficiency %.3f not above update %.3f", inv, upd)
	}
}

// TestP5WriteThroughTrafficGrowsWithWrites verifies the §3.1 shape.
func TestP5WriteThroughTrafficGrowsWithWrites(t *testing.T) {
	rep, err := CopyBackVsWriteThrough(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	trans := func(pWrite, protocol string) float64 {
		for _, row := range rep.Rows {
			if row[0] == pWrite && row[1] == protocol {
				v, _ := strconv.ParseFloat(row[2], 64)
				return v
			}
		}
		t.Fatalf("missing row %s/%s", pWrite, protocol)
		return 0
	}
	// Write-through transactions grow steeply with the write ratio.
	if !(trans("0.1", "write-through") < trans("0.3", "write-through") &&
		trans("0.3", "write-through") < trans("0.5", "write-through")) {
		t.Error("write-through traffic does not grow with write ratio")
	}
	// Copy-back stays far below write-through at every point.
	for _, p := range []string{"0.1", "0.3", "0.5"} {
		if trans(p, "moesi") >= trans(p, "write-through") {
			t.Errorf("pWrite=%s: copy-back %.3f not below write-through %.3f",
				p, trans(p, "moesi"), trans(p, "write-through"))
		}
	}
}

// TestP8AdaptedProtocolsAbort: the BS-adapted protocols abort on
// migratory sharing, the class members intervene instead.
func TestP8AdaptedProtocolsAbort(t *testing.T) {
	rep, err := AbortRetryOverhead(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	for _, name := range []string{"illinois", "write-once"} {
		aborts, _ := strconv.ParseFloat(byName[name][1], 64)
		if aborts == 0 {
			t.Errorf("%s: no aborts on migratory sharing", name)
		}
	}
	for _, name := range []string{"moesi-invalidate", "berkeley"} {
		aborts, _ := strconv.ParseFloat(byName[name][1], 64)
		ints, _ := strconv.ParseFloat(byName[name][2], 64)
		if aborts != 0 {
			t.Errorf("%s: aborted %v times", name, aborts)
		}
		if ints == 0 {
			t.Errorf("%s: never intervened", name)
		}
	}
	// Illinois pays more bus work per handoff than the DI protocols.
	illTrans, _ := strconv.ParseFloat(byName["illinois"][3], 64)
	berkTrans, _ := strconv.ParseFloat(byName["berkeley"][3], 64)
	if illTrans <= berkTrans {
		t.Errorf("illinois trans/ref %.4f not above berkeley %.4f", illTrans, berkTrans)
	}
}

// TestP3P4ConsistencyExperiments: the mixed and random buses run and
// self-verify.
func TestP3P4ConsistencyExperiments(t *testing.T) {
	if _, err := MixedBus(smallOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomChoice(smallOpts()); err != nil {
		t.Fatal(err)
	}
}

// TestP6AdaptiveBetweenExtremes: the adaptive policy's update count
// falls between pure invalidate (0) and pure update.
func TestP6AdaptiveBetweenExtremes(t *testing.T) {
	rep, err := ReplacementStatusRefinement(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	upd := map[string]float64{}
	for _, row := range rep.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		upd[row[0]] = v
	}
	if !(upd["moesi-invalidate"] == 0) {
		t.Errorf("invalidate received %v updates", upd["moesi-invalidate"])
	}
	if !(upd["moesi-adaptive"] > 0 && upd["moesi-adaptive"] < upd["moesi"]) {
		t.Errorf("adaptive updates %v not between invalidate 0 and update %v",
			upd["moesi-adaptive"], upd["moesi"])
	}
}

// TestP7LineSizeTradeoff: bigger lines cut misses but move more bytes
// per reference at the large end.
func TestP7LineSizeTradeoff(t *testing.T) {
	rep, err := LineSizeSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	miss := column(t, rep, "miss")
	bytes := column(t, rep, "bytes/ref")
	if len(miss) != 4 {
		t.Fatalf("rows = %d", len(miss))
	}
	if miss[0] <= miss[len(miss)-1] {
		t.Errorf("miss ratio did not fall with line size: %v", miss)
	}
	if bytes[len(bytes)-1] <= bytes[0] {
		t.Errorf("bytes/ref did not grow with line size: %v", bytes)
	}
}

// TestHandshakePenaltySweep: bus busy time grows monotonically with the
// wired-OR penalty.
func TestHandshakePenaltySweep(t *testing.T) {
	rep, err := HandshakePenalty(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	busy := column(t, rep, "busBusy(ns)")
	if !(busy[0] < busy[1] && busy[1] < busy[2]) {
		t.Errorf("busy not monotone in penalty: %v", busy)
	}
}

// TestP1Shapes: single-processor efficiency beats 16-processor
// efficiency (the bus saturates) and system power grows with procs for
// the copy-back protocols.
func TestP1Shapes(t *testing.T) {
	rep, err := ProtocolComparison([]string{"moesi", "write-through"}, []int{1, 4, 16}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	moesi := rowsWhere(rep, 0, "moesi")
	eff := func(row []string) float64 {
		v, _ := strconv.ParseFloat(row[6], 64)
		return v
	}
	power := func(row []string) float64 {
		v, _ := strconv.ParseFloat(row[7], 64)
		return v
	}
	if eff(moesi[0]) <= eff(moesi[2]) {
		t.Errorf("efficiency did not fall with contention: %v vs %v", eff(moesi[0]), eff(moesi[2]))
	}
	if power(moesi[1]) <= power(moesi[0]) {
		t.Errorf("4-proc power %.2f not above 1-proc %.2f", power(moesi[1]), power(moesi[0]))
	}
	// Copy-back outperforms write-through at every processor count.
	wt := rowsWhere(rep, 0, "write-through")
	for i := range moesi {
		if eff(moesi[i]) <= eff(wt[i]) {
			t.Errorf("procs=%s: moesi eff %.3f not above write-through %.3f",
				moesi[i][1], eff(moesi[i]), eff(wt[i]))
		}
	}
}

// TestRunnerChecksEveryCell: the one runner every flat experiment cell
// goes through (F1/F2, F2b and P10 included) ends each run with the
// consistency checker, so a board that keeps its copy after a foreign
// RFO (+drop-inv) fails the cell with the checker's verdict, while the
// same cell with correct boards passes.
func TestRunnerChecksEveryCell(t *testing.T) {
	opts := smallOpts()
	cfg := Homogeneous("moesi-invalidate", 4)
	if _, err := opts.run(cfg, abModel(0.2, 0.3, opts.Seed), false); err != nil {
		t.Fatalf("correct boards: %v", err)
	}
	cfg.Boards[0].Fault = "drop-inv"
	_, err := opts.run(cfg, abModel(0.2, 0.3, opts.Seed), false)
	if err == nil || !strings.HasPrefix(err.Error(), "consistency check failed") {
		t.Fatalf("+drop-inv board: got %v, want the checker's verdict", err)
	}
}

// TestReportRender: the report formatter produces aligned output with
// notes.
func TestReportRender(t *testing.T) {
	rep := &Report{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	rep.AddRow("1", "2")
	rep.AddNote("hello %d", 7)
	out := rep.Render()
	for _, want := range []string{"X — demo", "a", "bb", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
