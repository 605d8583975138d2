package sim

import (
	"strings"
	"testing"

	"futurebus/internal/cache"
	"futurebus/internal/hierarchy"
	"futurebus/internal/obs"
)

// TestNewRejectsBadGeometry: an invalid line size or cache geometry is
// an error from New, never a panic from the memory, cache or layout
// constructors further down.
func TestNewRejectsBadGeometry(t *testing.T) {
	moesi := func(cfg Config) Config {
		cfg.Boards = []BoardSpec{{Protocol: "moesi"}, {Protocol: "moesi"}}
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative line", moesi(Config{LineSize: -32}), "line size -32"},
		{"line not whole words", moesi(Config{LineSize: 6}), "line size 6"},
		{"line too big", moesi(Config{LineSize: 4096000000}), "line size 4096000000"},
		{"line just over the bound", moesi(Config{LineSize: MaxLineSize + 4}), "at most"},
		{"negative sets", moesi(Config{CacheSets: -1}), "invalid geometry"},
		{"negative ways", moesi(Config{CacheWays: -2}), "invalid geometry"},
		{"sets do not interleave", moesi(Config{CacheSets: 3, Shards: 2}), "cannot interleave"},
		{"negative sub-sectors", Config{Boards: []BoardSpec{{Protocol: "moesi", SectorSubs: -1}}}, "invalid geometry"},
		{"too many sub-sectors", Config{Boards: []BoardSpec{{Protocol: "moesi", SectorSubs: cache.MaxSubSectors + 1}}}, "invalid geometry"},
		{"sector does not divide granularity", Config{
			Boards: []BoardSpec{{Protocol: "moesi", SectorSubs: 4}, {Protocol: "moesi", SectorSubs: 3}},
			Shards: 2,
		}, "cannot interleave"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("New panicked: %v", r)
				}
			}()
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestNewAcceptsGeometryBounds: the bounds themselves are valid, and an
// uncached board does not take the configured cache geometry.
func TestNewAcceptsGeometryBounds(t *testing.T) {
	for _, cfg := range []Config{
		{LineSize: 4, Boards: []BoardSpec{{Protocol: "moesi"}}},
		{LineSize: MaxLineSize, Boards: []BoardSpec{{Protocol: "moesi"}}},
		{Boards: []BoardSpec{{Protocol: "moesi", SectorSubs: cache.MaxSubSectors}}},
		{CacheSets: 3, Shards: 2, Boards: []BoardSpec{{Protocol: "uncached"}}},
	} {
		sys, err := New(cfg)
		if err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
			continue
		}
		if _, err := sys.Boards[0].Read(5, 0); err != nil {
			t.Errorf("%+v: read: %v", cfg, err)
		}
	}
}

// TestNewRejectsIDsPastMaxID: every board and bus id a system gives its
// events stays below obs.MaxID, the bound under which the analyzers
// keep per-line state; a larger flat system or tree is an error.
func TestNewRejectsIDsPastMaxID(t *testing.T) {
	if _, err := New(Homogeneous("moesi", obs.MaxID)); err != nil {
		t.Fatalf("%d boards rejected: %v", obs.MaxID, err)
	}
	for name, cfg := range map[string]Config{
		"boards": Homogeneous("moesi", obs.MaxID+1),
		"shards": {Boards: []BoardSpec{{Protocol: "moesi"}}, Shards: obs.MaxID + 1},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "must stay below") {
			t.Errorf("%s: New error = %v", name, err)
		}
	}
	for _, cfg := range []hierarchy.Config{
		{Clusters: 2, ProcsPerCluster: obs.MaxID/2 + 1},
		{Clusters: obs.MaxID, ProcsPerCluster: 1},
	} {
		if _, err := NewTree(cfg); err == nil || !strings.Contains(err.Error(), "must stay below") {
			t.Errorf("%d×%d tree: NewTree error = %v", cfg.Clusters, cfg.ProcsPerCluster, err)
		}
	}
}
