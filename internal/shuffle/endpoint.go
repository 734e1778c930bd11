package shuffle

import (
	"fmt"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// The endpoint core. The four transport designs differ only in their data
// paths (credits for SR/RC and SR/UD, message counting for SR/UD,
// FreeArr/ValidArr for RD/RC, slot grants for WR/RC); everything they share
// lives here and is embedded by every endpoint type:
//
//   - endpoint: the per-peer lifecycle the connection manager drives (drain,
//     close, reopen), attribution of failures to dead peers, the post that
//     rides out a full send queue, and registered-memory accounting;
//   - sender: the transmission-buffer pool, GETFREE, and the Finish flush;
//   - receiver: per-source stream completion (ProgressReporter);
//   - ringTx/ringRx: the 8-byte slot queues of the one-sided designs.

// waitQuantum is the polling granularity of endpoint wait loops; it bounds
// the latency of observing conditions that have no direct wakeup path.
// Fruitless waits back off exponentially up to maxWaitQuantum so a stalled
// endpoint re-polls ever less often while it runs down its StallTimeout.
const (
	waitQuantum    = 200 * time.Microsecond
	maxWaitQuantum = 16 * waitQuantum
)

// waiter paces one blocking endpoint call: every fruitless wait doubles the
// next quantum (productive work resets it) and accumulates toward the
// StallTimeout bound, converting a protocol deadlock into a diagnosable
// error instead of a hang. Wakeups themselves are event-driven (condition
// broadcasts); the quantum only sets how often the loop re-checks state
// that has no direct wakeup path.
type waiter struct {
	limit   sim.Duration
	quantum sim.Duration
	waited  sim.Duration
}

func newWaiter(limit sim.Duration) waiter {
	return waiter{limit: limit, quantum: waitQuantum}
}

// step returns the quantum for the upcoming wait.
func (w *waiter) step() sim.Duration { return w.quantum }

// progress resets the backoff after productive work.
func (w *waiter) progress() { w.quantum, w.waited = waitQuantum, 0 }

// idle records a fruitless wait of the current quantum and reports false
// once the accumulated wait exceeds the stall limit.
func (w *waiter) idle() bool {
	w.waited += w.quantum
	if w.quantum < maxWaitQuantum {
		w.quantum *= 2
		if w.quantum > maxWaitQuantum {
			w.quantum = maxWaitQuantum
		}
	}
	return w.waited <= w.limit
}

// stalled books the outcome of one wait of w.step(): a wakeup resets the
// backoff, a timeout counts toward the limit. It reports true once the
// limit is exceeded.
func (w *waiter) stalled(woke bool) bool {
	if woke {
		w.progress()
		return false
	}
	return !w.idle()
}

// remoteWin addresses a window of remote registered memory.
type remoteWin struct {
	rkey uint32
	base int
}

// endpoint is the state every RDMA endpoint carries regardless of design.
type endpoint struct {
	dev  *verbs.Device
	cfg  Config
	n    int
	tag  string // design and role in names and diagnostics, e.g. "srrc"
	gate epGate

	// qps holds one Reliable Connection per peer (nil for UD); qpPeer maps
	// each QPN back to its peer so error completions can be attributed.
	qps    []*verbs.QP
	qpPeer map[uint32]int
	// failed marks peers declared dead by the connection manager.
	failed []bool

	// scq is where the endpoint's outgoing work requests complete; reap
	// drains it when a post finds the send queue full.
	scq  *verbs.CQ
	reap func(p *sim.Proc) error

	// kicks and kickMem are the waits closePeer wakes.
	kicks   []*verbs.CQ
	kickMem bool

	regBytes int64 // registered memory owned by this endpoint
}

func newEndpoint(dev *verbs.Device, cfg Config, n int, tag, role string) endpoint {
	return endpoint{
		dev: dev, cfg: cfg, n: n, tag: tag,
		gate:   newEPGate(dev.Sim(), fmt.Sprintf("%s-%s@%d", tag, role, dev.Node())),
		failed: make([]bool, n),
	}
}

func (e *endpoint) core() *endpoint { return e }

// drainPeer, closePeer and reopenPeer are the connection manager's hooks.
// When the failure detector suspects a peer, Build's handler drains then
// closes every endpoint of each surviving node (from scheduler context —
// none may block): the peer is marked failed and every blocked caller
// wakes, so SHUFFLE/RECEIVE terminate with ErrPeerFailed instead of waiting
// forever on credits, slots or message counts the dead node will never
// produce. Draining is not terminal: when the suspicion clears (partition
// heal, reboot) reopenPeer clears the mark. Both are idempotent and leave
// the flow-control accounting untouched, so repeated false suspicions leak
// no credits. Out-of-range peers are ignored.
func (e *endpoint) drainPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = true
	}
}

func (e *endpoint) reopenPeer(peer int) {
	if peer >= 0 && peer < e.n {
		e.failed[peer] = false
	}
}

func (e *endpoint) closePeer() {
	for _, cq := range e.kicks {
		cq.Kick()
	}
	if e.kickMem {
		e.dev.KickMemWaiters()
	}
}

// wakeOnClose sets what closePeer wakes: the given CQs, then the remote
// memory waiters when mem is set.
func (e *endpoint) wakeOnClose(mem bool, cqs ...*verbs.CQ) {
	e.kicks, e.kickMem = cqs, mem
}

// anyFailed returns a failed peer, if one exists.
func (e *endpoint) anyFailed() (int, bool) {
	for d, f := range e.failed {
		if f {
			return d, true
		}
	}
	return 0, false
}

// peerGone reports why dest can never grant again: it was declared dead,
// or its connection is in the error state. The grant waits (SR/RC credit,
// WR/RC slots) fail fast on either instead of running down StallTimeout.
func (e *endpoint) peerGone(dest int) error {
	if e.failed[dest] {
		return peerFailedErr(dest)
	}
	if e.qps[dest].State() == verbs.QPError {
		return fmt.Errorf("%w: connection to node %d is in the error state", ErrTransport, dest)
	}
	return nil
}

// downPeer attributes a failed completion to a dead peer: the connection
// manager tore its QP down, or the peer is marked failed. UD completions
// carry no peer and are never attributed.
func (e *endpoint) downPeer(c verbs.CQE) (int, bool) {
	d, ok := e.qpPeer[c.QPN]
	return d, ok && (c.Status == verbs.WCPeerDown || e.failed[d])
}

// cqeErr converts a failed completion into ErrPeerFailed when a dead peer
// explains it, otherwise into ErrTransport.
func (e *endpoint) cqeErr(c verbs.CQE) error {
	if d, ok := e.downPeer(c); ok {
		return peerFailedErr(d)
	}
	return wcErr(c)
}

// post posts wr on qp. While the send queue is full it waits for a
// completion on scq, lets reap retire what completed, and posts again.
func (e *endpoint) post(p *sim.Proc, qp *verbs.QP, wr verbs.SendWR) error {
	for {
		err := e.gate.post(p, qp, wr)
		if err != verbs.ErrSQFull {
			return err
		}
		e.scq.WaitNonEmpty(p, 0)
		if err := e.reap(p); err != nil {
			return err
		}
	}
}

// createQPs creates one RC Queue Pair per peer; connectRC joins them.
func (e *endpoint) createQPs(scq, rcq *verbs.CQ, maxSend, maxRecv int) {
	e.qps = make([]*verbs.QP, e.n)
	e.qpPeer = make(map[uint32]int, e.n)
	for d := range e.qps {
		e.qps[d] = e.dev.CreateQP(verbs.QPConfig{
			Type: fabric.RC, SendCQ: scq, RecvCQ: rcq,
			MaxSend: maxSend, MaxRecv: maxRecv,
		})
		e.qpPeer[e.qps[d].QPN()] = d
	}
}

// connectRC joins sender s on node a with receiver r on node b.
func connectRC(s, r *endpoint, a, b int) {
	must(s.qps[b].Connect(b, r.qps[a].QPN()))
	must(r.qps[a].Connect(a, s.qps[b].QPN()))
}

// alloc and register create pooled and plain registered regions, counting
// them toward the endpoint's registered memory.
func (e *endpoint) alloc(size int) *verbs.MR {
	e.regBytes += int64(size)
	return e.dev.AllocMRNoCost(size)
}

func (e *endpoint) register(size int) *verbs.MR {
	e.regBytes += int64(size)
	return e.dev.RegisterMRNoCost(make([]byte, size))
}

// sender is the core of a SEND endpoint: the pool of registered
// transmission buffers, GETFREE, and the Finish flush.
type sender struct {
	endpoint
	mr      *verbs.MR       // transmission buffers, stride bytes apart
	stride  int             // buffer size including the header
	free    *sim.Queue[int] // free buffer offsets
	pending map[int]int     // buffer offset -> completions still owed

	// idBase offsets data work-request IDs from buffer offsets. With 1, ID 0
	// marks a control write that owns no buffer (the one-sided designs).
	idBase uint64
	// local marks sends that complete locally (UD): a dead peer never holds
	// a buffer, so the waits need not check for one.
	local bool
	// memWait makes the buffer waits watch remote memory writes (RD: buffers
	// return through FreeArr) instead of scq.
	memWait bool
	// collect retires returned buffers without blocking before each wait.
	// nil means they return through one poll of scq after each wakeup.
	collect func(p *sim.Proc) error
}

func newSender(dev *verbs.Device, cfg Config, n int, tag string, stride int) sender {
	return sender{
		endpoint: newEndpoint(dev, cfg, n, tag, "send"),
		stride:   stride,
		free:     sim.NewQueue[int](dev.Sim(), fmt.Sprintf("%s-free@%d", tag, dev.Node())),
		pending:  make(map[int]int),
	}
}

// fillPool registers bufs transmission buffers and frees them all.
func (s *sender) fillPool(bufs int) {
	s.mr = s.alloc(bufs * s.stride)
	for i := 0; i < bufs; i++ {
		s.free.Put(i * s.stride)
	}
}

func (s *sender) buf(off int) *Buf {
	return &Buf{Data: s.mr.Buf[off+HeaderSize : off+s.stride], off: off}
}

// lease writes b's header and records that count completions (one per
// destination, or a single multicast one) must retire before b is free.
func (s *sender) lease(b *Buf, count int, flags uint16, value uint64) {
	putHeader(s.mr.Buf[b.off:], header{payload: b.Len, flags: flags, src: uint16(s.dev.Node()), value: value})
	s.pending[b.off] = count
}

// dataWR is the work request carrying b.
func (s *sender) dataWR(b *Buf, op verbs.Opcode) verbs.SendWR {
	return verbs.SendWR{ID: uint64(b.off) + s.idBase, Op: op, MR: s.mr, Offset: b.off, Len: HeaderSize + b.Len}
}

// retire counts one completion against the buffer at off and frees the
// buffer once nothing more is owed.
func (s *sender) retire(off int) {
	s.pending[off]--
	if s.pending[off] == 0 {
		delete(s.pending, off)
		s.free.Put(off)
	}
}

// pollOnce polls scq once and retires what completed. A completion with an
// error status (retry exhaustion, or a flush after the QP errored) fails
// the endpoint; the rest of the batch is still retired.
func (s *sender) pollOnce(p *sim.Proc) error {
	var es [16]verbs.CQE
	n := s.gate.poll(p, s.scq, es[:])
	var err error
	for _, c := range es[:n] {
		if c.Status != verbs.WCSuccess {
			if err == nil {
				err = s.cqeErr(c)
			}
			continue
		}
		if c.WRID >= s.idBase {
			s.retire(int(c.WRID - s.idBase))
		}
	}
	return err
}

// reapAll polls scq until it is empty, reporting the first failure.
func (s *sender) reapAll(p *sim.Proc) error {
	var err error
	for s.scq.Len() > 0 {
		if perr := s.pollOnce(p); err == nil {
			err = perr
		}
	}
	return err
}

// GetFree implements SendEndpoint: it returns a buffer once every member
// of its last transmission group has released it.
func (s *sender) GetFree(p *sim.Proc) (*Buf, error) {
	w := newWaiter(s.cfg.StallTimeout)
	for {
		if off, ok := s.free.TryGet(); ok {
			return s.buf(off), nil
		}
		if s.collect != nil {
			if err := s.collect(p); err != nil {
				return nil, err
			}
			if off, ok := s.free.TryGet(); ok {
				return s.buf(off), nil
			}
		}
		if err := s.await(p, &w, "GetFree"); err != nil {
			return nil, err
		}
	}
}

// flush waits until every leased buffer has been released.
func (s *sender) flush(p *sim.Proc) error {
	w := newWaiter(s.cfg.StallTimeout)
	for len(s.pending) > 0 {
		if s.collect != nil {
			if err := s.collect(p); err != nil {
				return err
			}
			if len(s.pending) == 0 {
				break
			}
		}
		if err := s.await(p, &w, "Finish flush"); err != nil {
			return err
		}
	}
	return nil
}

// await blocks one backoff quantum for buffers to return. A buffer pending
// toward a dead peer will never return, so the wait fails instead: the
// fragment fails and recovery re-plans over the survivors.
func (s *sender) await(p *sim.Proc, w *waiter, what string) error {
	if !s.local {
		if d, ok := s.anyFailed(); ok {
			return peerFailedErr(d)
		}
	}
	var woke bool
	if s.memWait {
		woke = s.dev.WaitMemChange(p, w.step())
	} else {
		woke = s.scq.WaitNonEmpty(p, w.step())
	}
	if w.stalled(woke) {
		return fmt.Errorf("%w: %s %s on node %d (%d buffers outstanding)",
			ErrStalled, s.tag, what, s.dev.Node(), len(s.pending))
	}
	if woke && s.collect == nil {
		return s.pollOnce(p)
	}
	return nil
}

// finish is the Finish of the connected designs: one zero-payload
// end-of-stream buffer goes to every node, then the flush.
func (s *sender) finish(p *sim.Proc, send func(p *sim.Proc, b *Buf, dest []int, depleted bool) error) error {
	b, err := s.GetFree(p)
	if err != nil {
		return err
	}
	all := make([]int, s.n)
	for i := range all {
		all[i] = i
	}
	b.Len = 0
	if err := send(p, b, all, true); err != nil {
		return err
	}
	return s.flush(p)
}

// receiver is the core of a RECEIVE endpoint: per-source stream completion.
type receiver struct {
	endpoint
	done  []bool // sources whose stream completed
	ndone int
}

func newReceiver(dev *verbs.Device, cfg Config, n int, tag string) receiver {
	return receiver{endpoint: newEndpoint(dev, cfg, n, tag, "recv"), done: make([]bool, n)}
}

// Depleted implements ProgressReporter.
func (r *receiver) Depleted(src int) bool {
	return src >= 0 && src < r.n && r.done[src]
}

// setDone records whether the stream from src is complete.
func (r *receiver) setDone(src int, v bool) {
	if r.done[src] == v {
		return
	}
	r.done[src] = v
	if v {
		r.ndone++
	} else {
		r.ndone--
	}
}

// finished reports whether every source's stream is complete.
func (r *receiver) finished() bool { return r.ndone >= r.n }

// missingFailed returns a failed source whose stream is still incomplete.
// A failed source that already completed owes nothing, so the receiver can
// still finish.
func (r *receiver) missingFailed() (int, bool) {
	for s, f := range r.failed {
		if f && !r.done[s] {
			return s, true
		}
	}
	return 0, false
}

// reapControl drains completions of the receiver's flow-control writes
// (credits, grants). One flushed toward a dead peer owes nothing.
func (r *receiver) reapControl(p *sim.Proc) error {
	var es [8]verbs.CQE
	for r.scq.Len() > 0 {
		n := r.gate.poll(p, r.scq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				if _, ok := r.downPeer(c); ok {
					continue
				}
				return wcErr(c)
			}
		}
	}
	return nil
}

// Slot encoding for the one-sided designs' circular queues (Alg. 3). One
// 8-byte word per slot: | offset:32 | length:24 | flags:7 | valid:1 |.
// A zero word is an empty slot; the consumer zeroes a slot after reading
// it, and a queue capacity above the producer's buffer count guarantees a
// producer never overruns unconsumed entries.
const (
	slotValid    = 1 << 0
	slotDepleted = 1 << 1
)

func packSlot(off, length int, depleted bool) uint64 {
	v := uint64(off)<<32 | uint64(length)<<8 | slotValid
	if depleted {
		v |= slotDepleted
	}
	return v
}

func unpackSlot(v uint64) (off, length int, depleted bool) {
	return int(v >> 32), int(v>>8) & 0xFFFFFF, v&slotDepleted != 0
}

// ringRx is the consuming side of per-peer slot queues: local registered
// memory that peers fill with RDMA Write.
type ringRx struct {
	mr   *verbs.MR
	cap  int
	cons []int
}

func newRingRx(e *endpoint, capacity int) ringRx {
	return ringRx{mr: e.register(8 * e.n * capacity), cap: capacity, cons: make([]int, e.n)}
}

// pop takes the next word peer wrote, if any.
func (r *ringRx) pop(peer int) (uint64, bool) {
	i := 8 * (peer*r.cap + r.cons[peer]%r.cap)
	v := verbs.ReadUint64(r.mr.Buf[i:])
	if v&slotValid == 0 {
		return 0, false
	}
	verbs.PutUint64(r.mr.Buf[i:], 0)
	r.cons[peer]++
	return v, true
}

// remote is the window through which peer writes its queue.
func (r *ringRx) remote(peer int) remoteWin {
	return remoteWin{rkey: r.mr.RKey, base: 8 * peer * r.cap}
}

// ringTx is the producing side: per-peer write indices into remote queues,
// and a staging word per remote slot for the inline writes.
type ringTx struct {
	stage *verbs.MR
	cap   int
	prod  []int
	win   []remoteWin
}

func newRingTx(e *endpoint, capacity int) ringTx {
	return ringTx{stage: e.register(8 * e.n * capacity), cap: capacity, prod: make([]int, e.n), win: make([]remoteWin, e.n)}
}

// push writes word into peer's next remote slot with an inline RDMA Write.
// The slot index is reserved before posting: PostSend can yield to another
// thread sharing this endpoint, and two writers must never target one slot.
// The staging word mirrors the remote slot for the same reason.
func (e *endpoint) push(p *sim.Proc, r *ringTx, peer int, word uint64) error {
	idx := r.prod[peer] % r.cap
	r.prod[peer]++
	stage := 8 * (peer*r.cap + idx)
	verbs.PutUint64(r.stage.Buf[stage:], word)
	return e.post(p, e.qps[peer], verbs.SendWR{
		Op: verbs.OpWrite, MR: r.stage, Offset: stage, Len: 8, Inline: true,
		RemoteKey: r.win[peer].rkey, RemoteOffset: r.win[peer].base + 8*idx,
	})
}
