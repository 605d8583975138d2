package sim

import (
	"bytes"
	"testing"

	"futurebus/internal/obs"
)

// TestTreeRerunIdentical: a deterministic rerun of a tree (the golden
// tree row) writes a byte-identical .fbt recording.
func TestTreeRerunIdentical(t *testing.T) {
	var tree goldenCase
	for _, gc := range goldenCases() {
		if gc.name == "tree" {
			tree = gc
		}
	}
	var fbt [2]bytes.Buffer
	for i := range fbt {
		rec := obs.New(obs.NewRecordSink(&fbt[i], obs.TraceMeta{Fingerprint: "tree"}))
		sys, err := tree.build(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Engine{Sys: sys, Gens: tree.gens(sys)}).Run(tree.refs); err != nil {
			t.Fatal(err)
		}
		if err := sys.Check(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fbt[0].Len() == 0 || !bytes.Equal(fbt[0].Bytes(), fbt[1].Bytes()) {
		t.Errorf("reruns recorded %d and %d bytes, not the same trace", fbt[0].Len(), fbt[1].Len())
	}
}
