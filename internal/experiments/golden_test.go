package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_scale0.1.txt from this tree's simulator")

// goldenScale keeps the 23 simulator-driven experiments under ~30 s.
const goldenScale Scale = 0.1

// wallClock lists the experiments that run real servers on the wall clock;
// their tables are not a function of the seed.
var wallClock = map[string]bool{
	"ext-failover":  true,
	"ext-sharding":  true,
	"ext-ctrlplane": true,
	"ext-volume":    true,
}

// TestGoldenTables pins every simulator-driven table, byte for byte, to
// the output of the commit that generated testdata/golden_scale0.1.txt.
// The simulator is deterministic for a given seed and scale, so a diff
// here means the order or timing of scheduled events changed: regenerate
// with -update only when that is the intent of the change.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulator-driven experiment (~25s)")
	}
	const path = "testdata/golden_scale0.1.txt"
	var b strings.Builder
	for _, id := range IDs() {
		if wallClock[id] {
			continue
		}
		tbl, err := Run(id, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tbl.Format())
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("tables differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
}
