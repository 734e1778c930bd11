package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of v, or 0 for an empty slice.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks, or 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest of the percentiles 90, 99 and 99.9
// that has at least ten of n samples beyond it, or 0 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
