package sim

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"futurebus/internal/obs"
)

// TestP9GlobalTrafficShrinksWithClustering: the §6 multi-bus shape —
// the global bus's transactions per reference fall monotonically as the
// 16 processors are split into more clusters.
func TestP9GlobalTrafficShrinksWithClustering(t *testing.T) {
	rep, err := MultiBusScaling(ExperimentOpts{RefsPerProc: 4000, Seed: 1986})
	if err != nil {
		t.Fatal(err)
	}
	g := column(t, rep, "globalTrans/ref")
	if len(g) != 4 {
		t.Fatalf("rows = %d", len(g))
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Fatalf("global traffic not shrinking: %v", g)
		}
	}
	// With 8 clusters the global bus carries well under half of the
	// single-bus load.
	if g[3] > g[0]/2 {
		t.Errorf("8-cluster global load %.4f not under half of %.4f", g[3], g[0])
	}
}

// TestP10SectorMatchesBigTagBudget: the §5.1 shape — at 64 tags the
// sector cache performs like the 256-tag plain cache, not like the
// 64-tag plain cache.
func TestP10SectorMatchesBigTagBudget(t *testing.T) {
	rep, err := SectorVsPlain(ExperimentOpts{RefsPerProc: 4000, Seed: 1986})
	if err != nil {
		t.Fatal(err)
	}
	miss := map[string]float64{}
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		miss[row[0]] = v
	}
	starved := miss["plain 16B, 64 tags"]
	sector := miss["sector 4×16B, 64 tags"]
	baseline := miss["plain 16B, 256 tags"]
	if sector >= starved/2 {
		t.Errorf("sector miss %.4f not well below tag-starved %.4f", sector, starved)
	}
	if sector > baseline*1.5 {
		t.Errorf("sector miss %.4f far above the 256-tag baseline %.4f", sector, baseline)
	}
}

// TestP10HonoursFabricOptions: P10 builds its systems from the sweep's
// options like every other experiment, so an unknown discipline is an
// error and a 4-shard run spreads its transactions over several buses.
func TestP10HonoursFabricOptions(t *testing.T) {
	if _, err := SectorVsPlain(ExperimentOpts{RefsPerProc: 50, Seed: 1986, Discipline: "no-such"}); err == nil {
		t.Error("P10 accepted an unknown discipline")
	}
	buses := map[int]bool{}
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindTx {
			buses[int(e.Bus)] = true
		}
	}))
	if _, err := SectorVsPlain(ExperimentOpts{RefsPerProc: 200, Seed: 1986, Shards: 4, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(buses) < 2 {
		t.Errorf("4-shard P10 put every transaction on buses %v", buses)
	}
}

// TestP9NamesIgnoredFabricOptions: a tree runs atomic tenure under one
// FCFS arbiter, unsharded, so P9 notes the sweep options it drops; with
// none set its report is unchanged, and the options never move a row.
func TestP9NamesIgnoredFabricOptions(t *testing.T) {
	plain, err := MultiBusScaling(ExperimentOpts{RefsPerProc: 200, Seed: 1986})
	if err != nil {
		t.Fatal(err)
	}
	honoured, err := MultiBusScaling(ExperimentOpts{RefsPerProc: 200, Seed: 1986, Shards: 1, Tenure: "atomic", Discipline: "fcfs"})
	if err != nil {
		t.Fatal(err)
	}
	if honoured.Render() != plain.Render() {
		t.Errorf("options the tree honours changed P9:\n%s\nwant:\n%s", honoured.Render(), plain.Render())
	}
	fabric, err := MultiBusScaling(ExperimentOpts{RefsPerProc: 200, Seed: 1986,
		Shards: 4, Tenure: "split", Discipline: "rr", PendingTable: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fabric.Rows, plain.Rows) {
		t.Errorf("fabric options moved P9's rows:\n%v\nwant:\n%v", fabric.Rows, plain.Rows)
	}
	if len(fabric.Notes) != len(plain.Notes)+1 {
		t.Fatalf("P9 has %d notes under fabric options, want %d", len(fabric.Notes), len(plain.Notes)+1)
	}
	note := fabric.Notes[len(fabric.Notes)-1]
	for _, flag := range []string{"-shards 4", "-bus split", "-discipline rr", "-pending-table 2"} {
		if !strings.Contains(note, flag) {
			t.Errorf("P9's note does not name %s: %q", flag, note)
		}
	}
}

// TestP9TimeModel: on every P9 shape the tree's time model is
// consistent — no bus of the tree is busy for longer than the run
// takes, and efficiency is a fraction — and clustering pays: efficiency
// rises from 1×16 through 2×8 to 4×4. On 1×16 every global transaction
// is part of a forwarded access that holds the one cluster bus, so the
// run takes at least both buses' busy time.
func TestP9TimeModel(t *testing.T) {
	var eff []float64
	for _, clusters := range []int{1, 2, 4, 8} {
		sys, m, err := runP9Tree(clusters, ExperimentOpts{RefsPerProc: 2000, Seed: 1986})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i, b := range sys.buses {
			busy := b.Stats().BusyNanos
			if busy <= 0 || busy > m.ElapsedNanos {
				t.Errorf("%d clusters: bus %d busy %d ns of %d ns elapsed", clusters, i, busy, m.ElapsedNanos)
			}
			total += busy
		}
		if clusters == 1 && total > m.ElapsedNanos {
			t.Errorf("1×16: the global and cluster buses are busy %d ns in all, but the run takes %d ns", total, m.ElapsedNanos)
		}
		if e := m.Efficiency(); e <= 0 || e > 1 {
			t.Errorf("%d clusters: efficiency %v", clusters, e)
		}
		eff = append(eff, m.Efficiency())
	}
	if !(eff[0] < eff[1] && eff[1] < eff[2]) {
		t.Errorf("efficiency does not rise from 1×16 to 4×4: %v", eff)
	}
}
