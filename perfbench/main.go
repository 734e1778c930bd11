// Command perfbench is the repository benchmark. It runs one workload of
// whole simulated queries back to back (a closed loop with one client, each
// query on a fresh cluster) for a fixed host-time budget, checks every
// query's outputs, and prints its metrics. With -trace 0 it reports the
// end-to-end metrics, measured with simulator tracing off; with -trace 1 it
// runs untraced and traced queries in pairs and reports per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"query_s": {"value": 0.81, "unit": "s"}, ...}}
//
// The lines before it give the host stamp, further statistics and, for a
// traced run, the registry counters, trace event counts and span self times.
// perfbench/run.sh builds the binary and runs it:
//
//	bash perfbench/run.sh -workload rc-repart -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rshuffle/internal/telemetry"
)

const (
	// minQueries is how many measured queries every run completes, whatever
	// its time budget; sim_ms is the median of exactly these, so it depends
	// on the seed alone.
	minQueries = 5
	// warmupQueries run before measuring, on the seeds the first measured
	// queries repeat. They fill the process-wide registered-buffer pool and
	// grow the heap, so measured queries start with both warm.
	warmupQueries = 2
	mib           = 1 << 20
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics; the tests keep the two in step.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"query_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"sim_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"cluster.boot_s", "s", "lower"},
	{"engine.gen_s", "s", "lower"},
	{"engine.send_busy_frac", "ratio", "higher"},
	{"engine.recv_busy_frac", "ratio", "higher"},
	{"shuffle.build_s", "s", "lower"},
	{"shuffle.setup_sim_ms", "ms", "lower"},
	{"shuffle.reg_sim_ms", "ms", "lower"},
	{"shuffle.send_mem_mb", "MiB", "lower"},
	{"shuffle.qps_per_op", "count", "lower"},
	{"shuffle.credit_writes", "count", "lower"},
	{"dag.edge_wqes", "count", "lower"},
	{"dag.edge_bytes", "B", "lower"},
	{"verbs.posts", "count", "lower"},
	{"verbs.polls", "count", "lower"},
	{"verbs.rnr_retries", "count", "lower"},
	{"verbs.ud_no_recv_drops", "count", "lower"},
	{"verbs.poll_yield", "ratio", "higher"},
	{"verbs.registered_mb", "MiB", "lower"},
	{"verbs.rss_per_registered", "ratio", "lower"},
	{"fabric.tx_messages", "count", "lower"},
	{"fabric.wire_mb", "MiB", "lower"},
	{"fabric.control_share", "ratio", "lower"},
	{"fabric.qp_cache_miss_ratio", "ratio", "lower"},
	{"fabric.rx_backlog_peak_us", "us", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.stream_s", "s", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.pdes_speedup", "ratio", "higher"},
	{"telemetry.overhead", "ratio", "lower"},
	{"telemetry.events", "count", "higher"},
	{"telemetry.dropped", "count", "lower"},
	{"telemetry.same_result", "bool", "higher"},
	{"host.gc_cycles", "count", "lower"},
	{"host.gc_pause_ms", "ms", "lower"},
}

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// spans is the directory the span dump goes to; empty skips the dump.
	spans string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark process's measurements.
type run struct {
	w    *workload
	o    options
	rec  *recorder
	res  result
	info []string // lines printed before the metrics
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "base seed: query i uses seed+i")
		secs    = flag.Int("seconds", 15, "host seconds to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		spanDir = flag.String("spans", "", "directory for the span dump (empty: no dump)")
	)
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r, err := benchmark(w, options{
		seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, spans: *spanDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs workload w: the warm-up queries, then the measured loop.
func benchmark(w *workload, o options) (*run, error) {
	r := &run{w: w, o: o, rec: newRecorder(), res: result{Metrics: map[string]metric{}}}
	r.note("workload", w.name, "")
	r.note("host.cpu", cpuModel(), "")
	r.note("host.nproc", runtime.NumCPU(), "")
	r.note("host.gomaxprocs", runtime.GOMAXPROCS(0), "")
	r.note("host.go", runtime.Version(), "")
	r.note("seed", o.seed, "")
	r.note("warmup_queries", warmupQueries, "")
	r.note("buffer_pool_warm", warmupQueries > 0, "")

	warm := make([]*sample, warmupQueries)
	for i := range warm {
		warm[i] = w.query(r.rec, o.seed+int64(i), runMode{})
		if i == 0 && warm[i].err == nil && w.sfPerNode > 0 {
			warm[i].err = w.checkOracle(warm[i])
		}
		r.count(warm[i])
	}
	var err error
	if o.trace {
		err = r.traced(warm)
	} else {
		err = r.untraced(warm)
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	r.note("fail_ratio", float64(r.res.Failed)/float64(r.res.Attempted), "ratio")
	self := selfByName(r.rec.spans)
	for _, name := range sortedKeys(self) {
		r.note("self_s."+name, self[name], "s")
	}
	if o.spans != "" {
		mode := 0
		if o.trace {
			mode = 1
		}
		path, err := r.rec.write(o.spans, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, mode))
		if err != nil {
			return nil, err
		}
		r.note("spans", path, "")
	}
	return r, nil
}

// untraced measures the end-to-end metrics with simulator tracing off.
func (r *run) untraced(warm []*sample) error {
	deadline := time.Now().Add(r.o.seconds)
	var total, setup, sims, cpu []float64
	var alloc uint64
	var gcCycles uint32
	n := 0
	for ; n < minQueries || time.Now().Before(deadline); n++ {
		s := r.w.query(r.rec, r.o.seed+int64(n), runMode{})
		if n < len(warm) {
			checkRepeat(warm[n], s)
		}
		r.count(s)
		alloc += s.allocBytes
		gcCycles += s.gcCycles
		if n < minQueries {
			sims = append(sims, s.simElapsed.Seconds()*1e3)
		}
		if s.err == nil {
			total = append(total, s.total.Seconds())
			setup = append(setup, s.setup.Seconds())
			cpu = append(cpu, s.cpu.Seconds())
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set(endToEnd, "query_s", median(total))
	r.set(endToEnd, "setup_s", median(setup))
	r.set(endToEnd, "peak_rss_mb", rss)
	r.set(endToEnd, "alloc_mb", float64(alloc)/float64(n)/mib)
	r.set(endToEnd, "sim_ms", median(sims))
	r.note("query_s.samples", len(total), "count")
	if p := tailPercentile(len(total)); p > 0 {
		r.note(fmt.Sprintf("query_s.p%g", p), quantile(total, p/100), "s")
	}
	r.note("query_cpu_s", median(cpu), "s")
	r.note("host.gc_cycles_per_query", float64(gcCycles)/float64(n), "count")
	return nil
}

// traced runs the workload's queries in pairs, untraced then traced on the
// same seed, and reports the per-layer metrics. Host times and registry
// counters come from the untraced queries, which execute exactly as the
// end-to-end run does; trace-derived counts come from the traced ones.
func (r *run) traced(warm []*sample) error {
	deadline := time.Now().Add(r.o.seconds)
	var us, ts []*sample
	var rss float64
	var speedups []float64
	same := 1.0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := r.o.seed + int64(i)
		u := r.w.query(r.rec, seed, runMode{})
		if i < len(warm) {
			checkRepeat(warm[i], u)
		}
		if i == 0 {
			var err error
			if rss, err = peakRSSMiB(); err != nil {
				return err
			}
		}
		r.count(u)
		t := r.w.query(r.rec, seed, runMode{traced: true})
		r.count(t)
		if u.fp != t.fp {
			same = 0
		}
		us, ts = append(us, u), append(ts, t)
		if r.w.lps > 0 {
			// The same traced query at 1 LP: the reference serial order,
			// which must match, and the base of the PDES speed-up.
			l := r.w.query(r.rec, seed, runMode{traced: true, lps: 1})
			if l.err == nil && t.err == nil && (l.fp != t.fp || l.traceFP != t.traceFP) {
				l.err = fmt.Errorf("seed %d: traced runs at 1 and %d logical partitions differ", seed, r.w.lps)
			}
			r.count(l)
			if l.err == nil && t.err == nil {
				speedups = append(speedups, l.stream.Seconds()/t.stream.Seconds())
			}
		}
	}
	u0, t0 := us[0], ts[0]

	var boot, gen, build, stream, nsPerEvent, uTotal, tTotal, gcCycles, gcPause []float64
	for i, u := range us {
		if u.err != nil || ts[i].err != nil {
			continue
		}
		boot = append(boot, u.boot.Seconds())
		gen = append(gen, u.gen.Seconds())
		build = append(build, u.build.Seconds())
		stream = append(stream, u.stream.Seconds())
		nsPerEvent = append(nsPerEvent, float64(u.stream.Nanoseconds())/float64(u.events))
		uTotal = append(uTotal, u.total.Seconds())
		tTotal = append(tTotal, ts[i].total.Seconds())
		gcCycles = append(gcCycles, float64(u.gcCycles))
		gcPause = append(gcPause, u.gcPause.Seconds()*1e3)
	}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	set("cluster.boot_s", median(boot))
	set("engine.gen_s", median(gen))
	set("shuffle.build_s", median(build))
	set("sim.stream_s", median(stream))
	set("sim.ns_per_event", median(nsPerEvent))
	set("sim.events", float64(u0.events))
	set("sim.pdes_speedup", median(speedups))
	set("shuffle.setup_sim_ms", u0.setupSim.Seconds()*1e3)
	set("host.gc_cycles", median(gcCycles))
	set("host.gc_pause_ms", median(gcPause))
	set("telemetry.overhead", ratio(median(tTotal), median(uTotal)))

	// Fields only one query shape reports read 0 on the other.
	var sendBusy, recvBusy, regSim, sendMem, qps float64
	if b := u0.bench; b != nil {
		sendBusy, recvBusy = b.SendBusyFrac, b.RecvBusyFrac
		regSim = b.RegTime.Seconds() * 1e3
		sendMem, qps = float64(b.SendMemoryPerNode)/mib, float64(b.QPsPerOperator)
	}
	set("engine.send_busy_frac", sendBusy)
	set("engine.recv_busy_frac", recvBusy)
	set("shuffle.reg_sim_ms", regSim)
	set("shuffle.send_mem_mb", sendMem)
	set("shuffle.qps_per_op", qps)
	var wqes, edgeBytes float64
	if d := u0.dag; d != nil {
		for _, e := range d.Edges {
			wqes += float64(e.WRs)
			edgeBytes += float64(e.Bytes)
		}
	}
	set("dag.edge_wqes", wqes)
	set("dag.edge_bytes", edgeBytes)

	reg := u0.reg
	total := func(name string) float64 { return float64(reg.CounterValue(name + ".total")) }
	set("verbs.posts", total("verbs.posts"))
	set("verbs.polls", total("verbs.polls"))
	set("verbs.rnr_retries", total("verbs.rnr_retries"))
	set("verbs.ud_no_recv_drops", total("verbs.ud_no_recv_drops"))
	completions := total("verbs.sends_completed") + total("verbs.recvs_completed") +
		total("verbs.reads_completed") + total("verbs.writes_completed")
	set("verbs.poll_yield", ratio(completions, total("verbs.polls")))
	var registered float64
	for _, name := range reg.GaugeNames() {
		if strings.HasPrefix(name, "verbs.peak_registered_bytes.") {
			v, _ := reg.Value(name)
			registered += v
		}
	}
	set("verbs.registered_mb", registered/mib)
	set("verbs.rss_per_registered", ratio(rss, registered/mib))
	set("fabric.tx_messages", total("fabric.tx_messages"))
	set("fabric.wire_mb", total("fabric.tx_wire_bytes")/mib)
	set("fabric.control_share", ratio(total("fabric.tx_control_bytes"), total("fabric.tx_wire_bytes")))
	hits, misses := total("fabric.qp_cache_hits"), total("fabric.qp_cache_misses")
	set("fabric.qp_cache_miss_ratio", ratio(misses, hits+misses))
	rxPeak, _ := reg.Value("fabric.rx_backlog_peak_us.max")
	set("fabric.rx_backlog_peak_us", rxPeak)

	kinds := map[string]int{}
	for _, e := range t0.trace {
		kinds[e.Name.String()]++
	}
	set("shuffle.credit_writes", float64(kinds[telemetry.EvCredit.String()]))
	set("telemetry.events", float64(len(t0.trace)))
	set("telemetry.dropped", float64(t0.dropped))
	set("telemetry.same_result", same)

	r.note("pairs", len(us), "count")
	r.note("peak_rss_mb.untraced", rss, "MiB")
	for _, name := range reg.CounterNames() {
		if strings.HasSuffix(name, ".total") {
			r.note("registry."+name, reg.CounterValue(name), "count")
		}
	}
	for _, k := range sortedKeys(kinds) {
		r.note("trace."+k, kinds[k], "count")
	}
	return nil
}

// checkRepeat fails s when it repeats ref's seed but not its outputs.
func checkRepeat(ref, s *sample) {
	if ref.err == nil && s.err == nil && ref.seed == s.seed && ref.fp != s.fp {
		s.err = fmt.Errorf("seed %d: repeated query changed its fingerprint (%x, then %x)", s.seed, ref.fp, s.fp)
	}
}

// count records one attempted query and whether it failed.
func (r *run) count(s *sample) {
	r.res.Attempted++
	if s.err != nil {
		r.res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: query failed:", s.err)
	}
}

func (r *run) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.res.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// note adds an informational line; unit is empty for labels.
func (r *run) note(name string, v any, unit string) {
	r.info = append(r.info, strings.TrimSpace(fmt.Sprintf("%s: %v %s", name, v, unit)))
}

// print writes the info lines, the metrics and, last, the JSON result.
func (r *run) print(w io.Writer) error {
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(r.res.Metrics) {
		m := r.res.Metrics[name]
		fmt.Fprintf(w, "%s: %g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
