package cluster

import (
	"reflect"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// TestTracedRunMatchesUntraced pins the observation contract: attaching a
// tracer or fetching an (empty) fault plan must not change what a run
// computes. Every Table 1 design runs at the same seed three ways, and the
// BenchResults must be identical down to the per-phase NIC counters, as must
// the number of scheduler events. Any divergence means an observer or an
// idle fault hook forked the execution path.
func TestTracedRunMatchesUntraced(t *testing.T) {
	type run struct {
		res    *BenchResult
		events uint64
	}
	modes := []struct {
		name  string
		setup func(c *Cluster)
	}{
		{"untraced", func(*Cluster) {}},
		{"traced", func(c *Cluster) { c.EnableTracing(1 << 12) }},
		{"faults-fetched", func(c *Cluster) { c.Net.Faults() }},
	}
	for _, alg := range shuffle.Algorithms {
		t.Run(alg.Name, func(t *testing.T) {
			var runs []run
			for _, m := range modes {
				c := New(fabric.FDR(), 8, 0, 42)
				m.setup(c)
				res, err := c.RunBench(BenchOpts{
					Factory:     RDMAProvider(alg.Config(c.Threads)),
					RowsPerNode: 1 << 15,
				})
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if res.Err != nil {
					t.Fatalf("%s: %v", m.name, res.Err)
				}
				runs = append(runs, run{res, c.Events()})
			}
			for i := 1; i < len(runs); i++ {
				if !reflect.DeepEqual(runs[0].res, runs[i].res) {
					t.Errorf("%s run diverges from %s\n%s: %+v\n%s: %+v", modes[i].name, modes[0].name,
						modes[0].name, runs[0].res, modes[i].name, runs[i].res)
				}
				if runs[0].events != runs[i].events {
					t.Errorf("%s run dispatched %d events, %s %d", modes[i].name, runs[i].events,
						modes[0].name, runs[0].events)
				}
			}
		})
	}
}
