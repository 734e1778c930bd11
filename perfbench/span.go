package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one host-time interval the benchmark recorded around a call into
// a layer. Spans of one query share Query; Parent is the enclosing span's
// ID, or -1 for a query's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps every span of a run in memory; write dumps them once the
// run ends, so recording never touches the disk while a query is timed.
type recorder struct {
	epoch   time.Time
	spans   []span
	queries int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newQuery returns a fresh query id.
func (r *recorder) newQuery() int {
	r.queries++
	return r.queries - 1
}

// add records a finished span and returns its id.
func (r *recorder) add(query, parent int, name string, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.StartNS
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// selfByName returns the median self time of each span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := make(map[string][]float64)
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], self[i].Seconds())
	}
	out := make(map[string]float64, len(by))
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// write dumps the spans as JSON to dir/name, creating dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(r.spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
