package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
	"rshuffle/internal/tpch"
)

// rowWidth is RunBench's default record size in bytes.
const rowWidth = 16

// workload is one set of benchmark inputs: a cluster shape, a transport and
// a query. Queries run back to back, each on a fresh cluster. README.md
// gives the reason for each workload.
type workload struct {
	name    string
	prof    fabric.Profile
	nodes   int
	threads int // worker threads per node; 0 selects the profile's default
	lps     int // sim.Group logical partitions; 0 keeps the classic engine
	cfg     shuffle.Config
	// rows is each node's table size for a repartition (RunBench) workload.
	rows int
	// sfPerNode > 0 selects TPC-H Q3 through the DAG planner at this scale
	// factor per node instead of a repartition.
	sfPerNode float64
	// traceCap is the trace ring capacity, per shard on a partitioned
	// cluster; sized so a traced query drops no events.
	traceCap int
	// tamper, when set, edits a finished query's outputs before they are
	// checked, so tests can forge a failed check.
	tamper func(*sample)
}

func workloads() []*workload {
	fdr := fabric.FDR()
	edr := fabric.EDR()
	edr.UDReorderProb = 0 // as cmd/tpchq runs TPC-H
	return []*workload{
		{
			name: "rc-repart",
			prof: fdr, nodes: 8, threads: 10,
			cfg:  shuffle.Config{Impl: shuffle.MQSR, Endpoints: 10},
			rows: 1 << 20, traceCap: 1 << 17,
		},
		{
			name: "ud-repart",
			prof: fdr, nodes: 8, threads: 10,
			cfg:  shuffle.Config{Impl: shuffle.SQSR, Endpoints: 10},
			rows: 1 << 20, traceCap: 1 << 19,
		},
		{
			name: "tpch-q3",
			prof: edr, nodes: 8,
			cfg:       shuffle.Config{Impl: shuffle.SQSR, Endpoints: edr.Threads},
			sfPerNode: 0.02, traceCap: 1 << 18,
		},
		{
			name: "wide64-lp2",
			prof: fdr, nodes: 64, threads: 2, lps: 2,
			cfg:  shuffle.Config{Impl: shuffle.SQSR, Endpoints: 2},
			rows: 1 << 16, traceCap: 1 << 13,
		},
	}
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runMode selects how one query executes.
type runMode struct {
	traced bool
	lps    int // logical partitions; 0 uses the workload's own
}

// sample is one query's host-time measurements and simulated outputs.
type sample struct {
	seed int64
	// Host time per layer: cluster boot, input generation, transport
	// bootstrap inside the provider factory (summed over factory calls),
	// and streaming from the last factory exit to the query's return.
	boot, gen, build, stream time.Duration
	// setup runs from the query's first call to the last factory exit,
	// total to the query's result.
	setup, total time.Duration
	// cpu is the process's CPU time (all threads) over total; allocBytes,
	// gcCycles and gcPause are the heap allocation and garbage collection
	// over the same interval.
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration

	simElapsed sim.Duration // virtual response time
	setupSim   sim.Duration // virtual transport bootstrap
	events     uint64
	reg        *telemetry.Registry
	bench      *cluster.BenchResult // repartition workloads
	dag        *dag.Result          // TPC-H workload
	trace      []telemetry.Event
	dropped    uint64
	// fp digests every simulated output; traceFP digests the trace.
	fp, traceFP uint64
	err         error
}

// query runs one query on a fresh cluster seeded with seed and records its
// layer spans under a new query id.
func (w *workload) query(rec *recorder, seed int64, m runMode) *sample {
	lps := w.lps
	if m.lps > 0 {
		lps = m.lps
	}
	// Every query starts from a collected heap, so its time and the peak
	// resident set do not depend on when the previous query's garbage
	// happens to be collected.
	runtime.GC()
	s := &sample{seed: seed}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	var db *tpch.DB
	var genStart, genEnd time.Time
	if w.sfPerNode > 0 {
		genStart = t0
		db = tpch.Generate(w.sfPerNode*float64(w.nodes), w.nodes, tpch.Random, seed)
		genEnd = time.Now()
	}
	bootStart := time.Now()
	c := cluster.NewWithOptions(w.prof, w.nodes, w.threads, seed, cluster.SimOptions{ParallelLPs: lps})
	bootEnd := time.Now()
	if m.traced {
		c.EnableTracing(w.traceCap)
	}
	// The wrapper hands back the provider unchanged; it only times the
	// factory. It runs inside a simulation Proc, whose hand-offs order its
	// writes before RunBench or tpch.Run returns.
	inner := cluster.RDMAProvider(w.cfg)
	var builds [][2]time.Time
	factory := func(p *sim.Proc, c *cluster.Cluster) shuffle.Provider {
		in := time.Now()
		prov := inner(p, c)
		builds = append(builds, [2]time.Time{in, time.Now()})
		return prov
	}
	runStart := time.Now()
	if db != nil {
		qr, dr, err := tpch.Run(c, db, 3, factory, false)
		if err != nil {
			s.err = err
		} else {
			s.dag = dr
			s.simElapsed, s.setupSim = qr.Elapsed, dr.SetupTime
		}
	} else {
		res, err := c.RunBench(cluster.BenchOpts{Factory: factory, RowsPerNode: w.rows})
		if err != nil {
			s.err = err
		} else {
			s.bench = res
			s.simElapsed, s.setupSim = res.Elapsed, res.SetupTime
		}
	}
	runEnd := time.Now()
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if len(builds) == 0 {
		builds = [][2]time.Time{{runStart, runStart}}
		if s.err == nil {
			s.err = errors.New("provider factory never called")
		}
	}
	if db == nil {
		genStart, genEnd = runStart, builds[0][0]
	}
	setupEnd := builds[len(builds)-1][1]

	scrapeStart := time.Now()
	s.reg = c.Metrics()
	scrapeEnd := time.Now()
	s.events = c.Events()
	if m.traced {
		s.trace = c.Trace()
		s.dropped = traceDropped(c)
	}

	q := rec.newQuery()
	root := rec.add(q, -1, "query", t0, scrapeEnd)
	rec.add(q, root, "cluster.boot", bootStart, bootEnd)
	rec.add(q, root, "engine.gen", genStart, genEnd)
	for _, b := range builds {
		rec.add(q, root, "shuffle.build", b[0], b[1])
		s.build += b[1].Sub(b[0])
	}
	rec.add(q, root, "sim.stream", setupEnd, runEnd)
	rec.add(q, root, "metrics.scrape", scrapeStart, scrapeEnd)
	s.boot, s.gen = bootEnd.Sub(bootStart), genEnd.Sub(genStart)
	s.stream = runEnd.Sub(setupEnd)
	s.setup, s.total = setupEnd.Sub(t0), runEnd.Sub(t0)

	if s.err == nil {
		if w.tamper != nil {
			w.tamper(s)
		}
		s.err = w.check(s)
	}
	s.fp, s.traceFP = fingerprint(s), traceFingerprint(s.trace)
	return s
}

// check verifies one query's outputs.
func (w *workload) check(s *sample) error {
	if s.dag != nil {
		if s.dag.Err != nil {
			return fmt.Errorf("seed %d: %w", s.seed, s.dag.Err)
		}
		if s.dag.Rows == 0 {
			return fmt.Errorf("seed %d: empty Q3 result", s.seed)
		}
		return nil
	}
	r := s.bench
	if r.Err != nil {
		return fmt.Errorf("seed %d: %w", s.seed, r.Err)
	}
	var rows, bytes int64
	for a := range r.RowsPerNode {
		rows += r.RowsPerNode[a]
		bytes += r.BytesPerNode[a]
	}
	sent := int64(w.nodes) * int64(w.rows)
	if rows != sent || bytes != sent*rowWidth {
		return fmt.Errorf("seed %d: received %d rows / %d bytes, sent %d / %d",
			s.seed, rows, bytes, sent, sent*rowWidth)
	}
	return nil
}

// checkOracle runs the hand-wired tpch.RunQ3 on the same database and
// cluster seed as ref and requires a byte-identical result table.
func (w *workload) checkOracle(ref *sample) error {
	if ref.dag == nil {
		return fmt.Errorf("seed %d: no DAG result to compare", ref.seed)
	}
	runtime.GC() // as before every query, so the oracle does not set the peak RSS
	db := tpch.Generate(w.sfPerNode*float64(w.nodes), w.nodes, tpch.Random, ref.seed)
	c := cluster.NewWithOptions(w.prof, w.nodes, w.threads, ref.seed, cluster.SimOptions{ParallelLPs: w.lps})
	hand := tpch.RunQ3(c, db, cluster.RDMAProvider(w.cfg))
	if hand.Err != nil {
		return fmt.Errorf("seed %d: hand-wired Q3: %w", ref.seed, hand.Err)
	}
	if !bytes.Equal(hand.Result.Data, ref.dag.Result.Data) {
		return fmt.Errorf("seed %d: DAG Q3 result (%d rows) differs from the hand-wired oracle (%d rows)",
			ref.seed, ref.dag.Rows, hand.Rows)
	}
	return nil
}

// traceDropped sums the events lost to ring overflow over every trace shard.
func traceDropped(c *cluster.Cluster) uint64 {
	shards := c.Net.TraceShards()
	if shards == nil {
		shards = []*telemetry.Tracer{c.Net.Tracer()}
	}
	var n uint64
	for _, t := range shards {
		n += t.Dropped()
	}
	return n
}

// fingerprint digests a query's simulated outputs: virtual times, data
// movement, event count, the full metrics registry and any result table.
func fingerprint(s *sample) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d\n", s.simElapsed, s.setupSim, s.events)
	if r := s.bench; r != nil {
		fmt.Fprintf(h, "%d %v %v %d %d\n", r.RegTime, r.RowsPerNode, r.BytesPerNode,
			r.SendMemoryPerNode, r.QPsPerOperator)
	}
	if r := s.dag; r != nil {
		fmt.Fprintf(h, "%d %+v\n", r.Rows, r.Edges)
		if r.Result != nil {
			h.Write(r.Result.Data)
		}
	}
	if s.reg != nil {
		_ = telemetry.WriteReport(h, s.reg) // hash.Hash writes never fail
	}
	return h.Sum64()
}

func traceFingerprint(events []telemetry.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range events {
		for _, v := range []uint64{uint64(e.At), e.Seq, uint64(e.Name), uint64(e.Kind),
			uint64(e.Node), e.QP, uint64(e.A), uint64(e.B)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// cpuTime returns the process's CPU time, user plus system, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
