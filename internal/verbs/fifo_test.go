package verbs

import "testing"

// TestFIFOMatchesSliceQueue drives a fifo through wraparound, growth up to
// its depth and an overrun past it, against a plain slice queue.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	q := newFIFO[int](20)
	var model []int
	next := 0
	step := func(pushes, pops int) {
		for i := 0; i < pushes; i++ {
			q.push(next)
			model = append(model, next)
			next++
		}
		dst := make([]int, pops)
		n := q.popInto(dst)
		if n != min(pops, len(model)) {
			t.Fatalf("popInto moved %d of %d (queued %d)", n, pops, len(model))
		}
		for i := 0; i < n; i++ {
			if dst[i] != model[i] {
				t.Fatalf("popped %d, want %d", dst[i], model[i])
			}
		}
		model = model[n:]
		if q.len() != len(model) {
			t.Fatalf("len %d, want %d", q.len(), len(model))
		}
	}
	for round := 0; round < 50; round++ {
		step(min(round%7+1, 20-len(model)), round%5+1)
		if len(q.buf) > 20 {
			t.Fatalf("storage grew to %d past depth 20 without an overrun", len(q.buf))
		}
	}
	step(30, 0) // overrun: a flush may push past the depth
	step(0, 100)
}
