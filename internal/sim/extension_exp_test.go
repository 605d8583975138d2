package sim

import (
	"strconv"
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
