package verbs

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"rshuffle/internal/sim"
)

// Registered-buffer pooling. Profiling whole-query runs shows the dominant
// host cost is not event dispatch but endpoint construction: every shuffle
// operator registers multi-megabyte data rings (send pools, receive rings),
// and Go zeroes each fresh allocation, so back-to-back runs spend most of
// their CPU in memclr plus the GC cycles the garbage rings trigger. Real
// RDMA applications hit the same wall — memory registration is so expensive
// that every serious runtime keeps a registered-buffer cache and reuses
// pinned regions across operators. This file is the simulator-host analogue:
// a process-wide, size-classed free list of ring buffers that AllocMRNoCost
// draws from and Cluster teardown returns to.
//
// Pooled buffers come back with UNSPECIFIED CONTENTS (whatever the previous
// tenant wrote). That is safe for data rings because every consumer in the
// transport designs reads only length-bounded regions it has seen written
// (WC byte counts, staged lengths, valid markers) — the same discipline a
// real ibv buffer imposes, since pinned memory is never zeroed by the NIC.
// Buffers whose initial all-zero state is load-bearing (credit words, stage
// arrays, valid/slot markers) must NOT come from the pool; keep allocating
// those fresh.
//
// The pool is an explicitly budgeted LIFO free list per size class, not a
// sync.Pool: sync.Pool's GC-epoch retention let long sweeps (hundreds of
// clusters between collections) accumulate gigabytes of dead rings, which
// in turn stretched the GC pacing goal and slowed every later simulation in
// the process. Here Put drops buffers beyond a fixed process-wide byte
// budget, so retention is bounded by bufPoolBudget no matter how many
// clusters a sweep builds, and the GC never interacts with the pool at all.
// The budget holds one cluster generation's rings — which is all reuse
// needs, since experiment cells build and retire clusters serially. Pool
// hits are non-deterministic under parallel cells (classes are shared
// process-wide), but only buffer identity varies — never simulated
// behaviour, because contents are invisible (above) and virtual time is
// independent of host memory.
//
// Classes are exact-fit: each power of two from 4 KiB to 256 MiB is split
// into bufClassSteps equal steps (5, 6, 7 and 8 KiB above 4 KiB, and so on
// up), so a ring never costs more than 1.25× its registered size and the
// common ring sizes (224 MiB = 7·32 MiB, say) cost exactly what they
// register. Power-of-two classes doubled the worst case, which pushed one
// 64-node generation's rings past the budget and made every query
// reallocate them.

const (
	bufClassMinBits = 12 // 4 KiB: below this, pooling saves less than it costs
	bufClassMaxBits = 28 // 256 MiB: largest ring any experiment builds
	bufClassSteps   = 4  // classes per power of two (a power of two itself included)

	// bufPoolBudget caps the total bytes retained across all classes.
	// Beyond it, putBuf drops buffers for the GC to reclaim.
	bufPoolBudget = 768 << 20
)

var (
	bufClasses  [(bufClassMaxBits-bufClassMinBits)*bufClassSteps + 1]bufClassList
	bufRetained atomic.Int64 // bytes currently parked across all classes
)

// bufClassList is one size class's free list: a mutex-guarded LIFO stack,
// so the most recently retired ring (hottest in cache, already faulted in)
// is reused first.
type bufClassList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// bufClass returns the index of the smallest class holding n bytes, or -1
// when n falls outside the pooled range. Class 0 is 4 KiB; above it, n in
// (2^e, 2^(e+1)] lands on the first of 2^e + k·2^e/bufClassSteps,
// k = 1..bufClassSteps, that holds it.
func bufClass(n int) int {
	if n <= 0 || n > 1<<bufClassMaxBits {
		return -1
	}
	if n <= 1<<bufClassMinBits {
		return 0
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	shift := e - bits.Len(bufClassSteps-1)
	k := (n - 1<<e + 1<<shift - 1) >> shift // ceil((n - 2^e) / step), 1..bufClassSteps
	return (e-bufClassMinBits)*bufClassSteps + k
}

// bufClassSize returns the capacity of class c.
func bufClassSize(c int) int {
	if c == 0 {
		return 1 << bufClassMinBits
	}
	e := bufClassMinBits + (c-1)/bufClassSteps
	k := (c-1)%bufClassSteps + 1
	return 1<<e + k<<(e-bits.Len(bufClassSteps-1))
}

// getBuf returns an n-byte slice backed by a pooled class-sized array, or a
// fresh allocation when n is outside the pooled range. Contents are
// unspecified on a pool hit.
func getBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if last := len(cl.bufs) - 1; last >= 0 {
		b := cl.bufs[last]
		cl.bufs[last] = nil
		cl.bufs = cl.bufs[:last]
		cl.mu.Unlock()
		bufRetained.Add(-int64(cap(b)))
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]byte, n, bufClassSize(c))
}

// putBuf returns a buffer obtained from getBuf to its class. Buffers whose
// capacity is not an exact class size (out-of-range allocations) or that
// would push retention past bufPoolBudget are left for the GC.
func putBuf(b []byte) {
	n := cap(b)
	c := bufClass(n)
	if c < 0 || bufClassSize(c) != n {
		return
	}
	if bufRetained.Add(int64(n)) > bufPoolBudget {
		bufRetained.Add(-int64(n))
		return
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	cl.bufs = append(cl.bufs, b[:n])
	cl.mu.Unlock()
}

// AllocMRNoCost registers an n-byte region drawn from the process-wide
// registered-buffer pool. Contents are UNSPECIFIED — callers must treat the
// region like real pinned memory and only read bytes they have seen
// written. Use it for data rings; regions whose initial zero state is
// semantic must go through RegisterMRNoCost(make([]byte, n)) instead. The
// region returns to the pool on Deregister or Device.RecycleMRs.
func (d *Device) AllocMRNoCost(n int) *MR {
	mr := d.RegisterMRNoCost(getBuf(n))
	mr.pooled = true
	return mr
}

// AllocMR is AllocMRNoCost charging p the registration cost, mirroring
// RegisterMR.
func (d *Device) AllocMR(p *sim.Proc, n int) *MR {
	p.Sleep(d.prof().MemRegBase + sim.Duration(float64(n)*d.prof().MemRegPerByte))
	return d.AllocMRNoCost(n)
}

// RecycleMRs deregisters every remaining pooled region on the device and
// returns the buffers to the pool. Call it only when the owning simulation
// is finished: no Proc may touch a recycled ring again. Non-pooled regions
// are untouched, and calling it twice is a no-op.
func (d *Device) RecycleMRs() {
	for key, mr := range d.mrs {
		if !mr.pooled {
			continue
		}
		mr.pooled = false
		delete(d.mrs, key)
		d.registered -= int64(len(mr.Buf))
		putBuf(mr.Buf)
		mr.Buf = nil
	}
}
