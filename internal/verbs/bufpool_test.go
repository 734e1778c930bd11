package verbs

import "testing"

// TestBufClassesExactFit checks the registered-buffer pool's size classes:
// every pooled request gets a class at least as large and below 1.25× its
// size, class boundaries are exact, and putBuf refuses capacities that are
// not a class size.
func TestBufClassesExactFit(t *testing.T) {
	check := func(n int) {
		c := bufClass(n)
		if c < 0 {
			t.Fatalf("%d bytes: not pooled", n)
		}
		size := bufClassSize(c)
		if size < n || 4*size >= 5*n {
			t.Fatalf("%d bytes: class %d holds %d (want n <= size < 1.25n)", n, c, size)
		}
		if c > 0 && bufClassSize(c-1) >= n {
			t.Fatalf("%d bytes: class %d (%d) is not the smallest; %d fits", n, c, size, bufClassSize(c-1))
		}
	}
	// Every boundary of every class, and a stride through the whole range.
	for c := 0; c < len(bufClasses); c++ {
		s := bufClassSize(c)
		if got := bufClass(s); got != c {
			t.Fatalf("class %d size %d maps back to class %d", c, s, got)
		}
		check(s)
		check(s - 1)
		if s < 1<<bufClassMaxBits {
			check(s + 1)
		}
	}
	for n := 1 << bufClassMinBits; n <= 1<<bufClassMaxBits; n += n/7 + 1 {
		check(n)
	}
	if got := bufClassSize(bufClass(224 << 20)); got != 224<<20 {
		t.Fatalf("224 MiB request gets a %d-byte class", got)
	}
	if bufClass(1<<bufClassMaxBits+1) != -1 || bufClass(0) != -1 {
		t.Fatal("out-of-range sizes must not be pooled")
	}

	if b := getBuf(5<<10 + 1); len(b) != 5<<10+1 || cap(b) != 6<<10 {
		t.Fatalf("getBuf(5 KiB + 1): len %d cap %d, want cap 6 KiB", len(b), cap(b))
	}
	retained := bufRetained.Load()
	for _, n := range []int{5<<10 + 8, 3<<20 + 4096, 9<<10 - 1, 1<<bufClassMaxBits + 4096} {
		putBuf(make([]byte, n))
		if got := bufRetained.Load(); got != retained {
			t.Fatalf("putBuf kept a %d-byte buffer that is not a class size", n)
		}
	}
	b := make([]byte, 7<<10)
	putBuf(b)
	if got := bufRetained.Load(); got != retained+7<<10 {
		t.Fatalf("putBuf dropped a 7 KiB class buffer (retained %d -> %d)", retained, got)
	}
	if got := getBuf(6<<10 + 1); &got[0] != &b[0] {
		t.Fatal("getBuf did not reuse the pooled 7 KiB buffer")
	}
}
