package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// goldenPath holds the pinned outputs of every endpoint design; a change to
// the shuffle endpoints that is meant to be behaviour-preserving must leave
// it untouched.
const goldenPath = "testdata/bench_golden.txt"

// goldenBench renders one lossless FDR run at 4 nodes and 2^13 rows/node:
// response and setup time, the event count, delivered rows and each node's
// streaming-phase NIC counters.
func goldenBench(t *testing.T, b *strings.Builder, alg shuffle.Algorithm, pattern string, groups func(int) shuffle.Groups) {
	t.Helper()
	c := New(fabric.FDR(), 4, 2, 42)
	res, err := c.RunBench(BenchOpts{
		Factory: RDMAProvider(alg.Config(c.Threads)), RowsPerNode: 1 << 13, GroupsFn: groups,
	})
	if err != nil {
		t.Fatalf("%s %s: simulation failed: %v", alg.Name, pattern, err)
	}
	fmt.Fprintf(b, "bench %s %s elapsed=%d setup=%d events=%d rows=%v err=%v\n",
		alg.Name, pattern, res.Elapsed, res.SetupTime, c.Events(), res.RowsPerNode, res.Err)
	for a, s := range res.StreamNIC {
		fmt.Fprintf(b, "  nic%d %+v\n", a, s)
	}
}

// goldenOutput renders every pinned run: both traffic patterns and the
// plain, crash-stop and transient chaos cells for every design.
func goldenOutput(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, alg := range shuffle.ExtendedAlgorithms {
		goldenBench(t, &b, alg, "repartition", shuffle.Repartition)
		goldenBench(t, &b, alg, "broadcast", shuffle.Broadcast)
	}
	opts := chaosOpts()
	crash := opts
	crash.Detector = DetectorConfig{Period: 500 * time.Microsecond, Suspect: 3}
	cells := []struct {
		faults []ChaosFault
		opts   ChaosOpts
	}{
		{ChaosFaults(), opts},
		{ChaosCrashFaults(), crash},
		{ChaosTransientFaults(), crash},
	}
	for _, alg := range shuffle.ExtendedAlgorithms {
		for _, cell := range cells {
			for _, f := range cell.faults {
				o, err := RunChaos(alg, f, cell.opts)
				if err != nil {
					t.Fatalf("%s/%s: simulation failed: %v", alg.Name, f.Name, err)
				}
				fmt.Fprintf(&b, "chaos %+v\n", o)
			}
		}
	}
	return b.String()
}

// TestBenchGolden pins the virtual-time outputs of all eight endpoint
// designs, clean and under every chaos fault. On a mismatch the new output
// is written next to the system temp dir for diffing; copy it over the
// golden file only when the change in behaviour is intended.
func TestBenchGolden(t *testing.T) {
	got := goldenOutput(t)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		out := filepath.Join(os.TempDir(), "bench_golden.got")
		if werr := os.WriteFile(out, []byte(got), 0o644); werr != nil {
			t.Logf("could not save output: %v", werr)
		}
		t.Fatalf("output differs from %s; new output saved to %s", goldenPath, out)
	}
}
