package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// tiny shrinks a workload to a size that runs in well under a second while
// keeping its transport, engine and query.
func tiny(w *workload) *workload {
	t := *w
	switch {
	case t.sfPerNode > 0:
		t.nodes, t.sfPerNode = 2, 0.002
	case t.lps > 0:
		t.nodes, t.rows = 4, 512
	default:
		t.nodes, t.rows = 2, 2048
	}
	return &t
}

// run1 runs a tiny workload through the real measurement loop: the untraced
// run completes its minimum query count, the traced run one pair.
func run1(t *testing.T, w *workload, trace bool) *run {
	t.Helper()
	r, err := benchmark(tiny(w), options{seed: 7, seconds: time.Millisecond, trace: trace, spans: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the workloads and
// metrics the program defines, and the file to its own format rules.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(f.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(names))
	}
	for i, w := range f.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: file %d+%d, program %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must carry the largest bound (%g < %g)", setupBound, maxBound)
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: file %+v, program %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) breaks the name or unit charset", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestWorkloadsReportEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each run passes its output checks and reports
// exactly its declared metrics with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			r := run1(t, w, trace)
			if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted < 2 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, trace, r.res.Correct, r.res.Attempted, r.res.Failed)
			}
			if len(r.res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: missing %s", w.name, trace, d.name)
					continue
				}
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %s", w.name, d.name, m.Value, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace && r.res.Metrics["telemetry.dropped"].Value != 0 {
				t.Errorf("%s: traced run dropped events", w.name)
			}
		}
	}
}

// TestForgedCheckFailuresCount forges a failed output check on each kind of
// workload and requires it to surface in failed / attempted.
func TestForgedCheckFailuresCount(t *testing.T) {
	for _, tc := range []struct {
		workload string
		tamper   func(*sample)
		want     int // forged failures per run: every query, or the oracle's
	}{
		{"rc-repart", func(s *sample) { s.bench.RowsPerNode[0]-- }, -1},
		{"ud-repart", func(s *sample) { s.bench.BytesPerNode[1] += rowWidth }, -1},
		// A corrupted DAG result no longer matches the hand-wired oracle,
		// which runs once, against the warm-up query.
		{"tpch-q3", func(s *sample) { s.dag.Result.Data[0] ^= 1 }, 1},
	} {
		w, err := lookup(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		w.tamper = tc.tamper
		r, err := benchmark(w, options{seed: 3, seconds: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want
		if want < 0 {
			want = r.res.Attempted
		}
		if r.res.Correct || r.res.Failed != want {
			t.Errorf("%s: correct=%v failed=%d/%d, want %d failures",
				tc.workload, r.res.Correct, r.res.Failed, r.res.Attempted, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 4, Parent: 1, Name: "d", StartNS: 15, EndNS: 25},
	}
	want := []time.Duration{100 - 40 - 10, 30 - 10, 20, 30, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}
