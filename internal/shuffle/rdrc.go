package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// rdRCSend implements the SEND endpoint with one-sided RDMA Read over the
// Reliable Connection service (§4.4.3, Fig. 7a). The sender stays passive
// on the data path: SEND only announces full buffers by writing their
// addresses into each receiver's ValidArr with RDMA Write, and GETFREE
// harvests buffer addresses that receivers returned through the local
// FreeArr. The data itself moves when receivers issue RDMA Reads; a dead
// receiver never returns its buffers, so blocked GETFREE/FINISH calls fail
// with ErrPeerFailed once the connection manager drains it.
type rdRCSend struct {
	sender
	poolBufs int
	freeArr  ringRx // FreeArr: buffers returned by receivers
	validArr ringTx // announcements into each receiver's ValidArr
}

// collectFrees harvests every FreeArr queue for returned buffers, then
// reaps the completions of ValidArr writes.
func (e *rdRCSend) collectFrees(p *sim.Proc) error {
	for src := 0; src < e.n; src++ {
		for {
			v, ok := e.freeArr.pop(src)
			if !ok {
				break
			}
			off, _, _ := unpackSlot(v)
			e.retire(off)
		}
	}
	return e.reapAll(p)
}

func (e *rdRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	e.lease(b, len(dest), 0, 0)
	word := packSlot(b.off, HeaderSize+b.Len, depleted)
	for _, d := range dest {
		if e.failed[d] {
			return peerFailedErr(d)
		}
		if err := e.push(p, &e.validArr, d, word); err != nil {
			if err == verbs.ErrPeerDown {
				return peerFailedErr(d)
			}
			return err
		}
	}
	return e.reapAll(p)
}

// Send implements SendEndpoint.
func (e *rdRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: one Depleted buffer is announced to every
// node, then the endpoint waits for receivers to return every outstanding
// buffer, since buffers may not be unregistered while a remote Read could
// still target them.
func (e *rdRCSend) Finish(p *sim.Proc) error { return e.finish(p, e.send) }

// rdRCRecv implements the RECEIVE endpoint over one-sided RDMA Read
// (§4.4.3, Fig. 7b). GETDATA first turns ValidArr announcements into RDMA
// Read requests while local destination buffers are available, then waits
// for read completions. RELEASE returns the remote buffer's address through
// the sender's FreeArr and recycles the local buffer onto LocalArr.
type rdRCRecv struct {
	receiver

	validArr ringRx // announcements from each sender
	freeArr  ringTx // returns into each sender's FreeArr

	localMR  *verbs.MR // local destination buffers for incoming reads
	localArr [][]int   // per source: stack of free local buffer offsets

	dataWin []remoteWin // per source: that sender's data pool MR

	nextWRID     uint64
	readCtx      map[uint64]rdReadCtx
	outstanding  int
	ready        dataQueue
	pendingFrees []pendingFree
}

type rdReadCtx struct {
	src       int
	remoteOff int
	localOff  int
	depleted  bool
}

// issueReads converts consumable ValidArr entries into RDMA Read requests
// (Alg. 3, GETDATA lines 19-24).
func (e *rdRCRecv) issueReads(p *sim.Proc) error {
	for src := 0; src < e.n; src++ {
		if e.failed[src] {
			// The sender's pool is unreachable; any announced-but-unread
			// buffers die with it.
			continue
		}
		for len(e.localArr[src]) > 0 {
			v, ok := e.validArr.pop(src)
			if !ok {
				break
			}
			off, length, dep := unpackSlot(v)
			last := len(e.localArr[src]) - 1
			local := e.localArr[src][last]
			e.localArr[src] = e.localArr[src][:last]
			e.nextWRID++
			wrid := e.nextWRID
			e.readCtx[wrid] = rdReadCtx{src: src, remoteOff: off, localOff: local, depleted: dep}
			err := e.post(p, e.qps[src], verbs.SendWR{
				ID: wrid, Op: verbs.OpRead,
				MR: e.localMR, Offset: local, Len: length,
				RemoteKey: e.dataWin[src].rkey, RemoteOffset: e.dataWin[src].base + off,
			})
			if err == verbs.ErrPeerDown {
				return peerFailedErr(src)
			}
			if err != nil {
				return err
			}
			e.outstanding++
		}
	}
	return nil
}

// drain processes completions, queueing finished reads as ready Data.
func (e *rdRCRecv) drain(p *sim.Proc) error {
	var es [16]verbs.CQE
	for e.scq.Len() > 0 {
		n := e.gate.poll(p, e.scq, es[:])
		if err := e.handle(es[:n]); err != nil {
			return err
		}
	}
	return nil
}

func (e *rdRCRecv) handle(es []verbs.CQE) error {
	for _, c := range es {
		if c.Status != verbs.WCSuccess {
			return e.cqeErr(c)
		}
		if c.Op != verbs.OpRead {
			continue // FreeArr write completion
		}
		ctx, ok := e.readCtx[c.WRID]
		if !ok {
			return fmt.Errorf("shuffle: unknown read completion %d", c.WRID)
		}
		delete(e.readCtx, c.WRID)
		e.outstanding--
		h := getHeader(e.localMR.Buf[ctx.localOff:])
		if ctx.depleted {
			e.setDone(ctx.src, true)
			if e.finished() {
				e.scq.Kick()
				e.dev.KickMemWaiters()
			}
		}
		if h.payload == 0 {
			// Marker buffer: release it right away.
			e.releaseParts(ctx.src, ctx.remoteOff, ctx.localOff)
			continue
		}
		off := ctx.localOff
		e.ready.push(&Data{
			Src:     int(h.src),
			Payload: e.localMR.Buf[off+HeaderSize : off+HeaderSize+h.payload],
			Remote:  uint64(ctx.remoteOff),
			slot:    off,
		})
	}
	return nil
}

// releaseParts performs the two halves of RELEASE without a Data wrapper.
// It is also used for zero-payload markers. The FreeArr write is deferred
// to the next GetData/Release call's Proc, so it must be invoked from Proc
// context; we keep a small queue of pending frees to flush.
func (e *rdRCRecv) releaseParts(src, remoteOff, localOff int) {
	e.pendingFrees = append(e.pendingFrees, pendingFree{src: src, remoteOff: remoteOff})
	e.localArr[src] = append(e.localArr[src], localOff)
}

type pendingFree struct {
	src       int
	remoteOff int
}

// flushFrees writes queued FreeArr notifications.
func (e *rdRCRecv) flushFrees(p *sim.Proc) error {
	for len(e.pendingFrees) > 0 {
		f := e.pendingFrees[0]
		e.pendingFrees = e.pendingFrees[1:]
		if e.failed[f.src] {
			continue // the dead sender will never reuse the buffer anyway
		}
		err := e.push(p, &e.freeArr, f.src, packSlot(f.remoteOff, 0, false))
		if err == verbs.ErrPeerDown {
			continue
		}
		if err != nil {
			return err
		}
		traceCredit(e.dev, f.src, int64(f.remoteOff))
	}
	return nil
}

// GetData implements RecvEndpoint (Alg. 3, GETDATA). A dead sender's stream
// fails GETDATA once it is known to be incomplete instead of waiting for
// ValidArr entries forever.
func (e *rdRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if d := e.ready.pop(); d != nil {
			return d, nil
		}
		if err := e.flushFrees(p); err != nil {
			return nil, err
		}
		if err := e.issueReads(p); err != nil {
			return nil, err
		}
		if err := e.drain(p); err != nil {
			return nil, err
		}
		// Drain may have queued FreeArr notifications (marker buffers);
		// flush them before blocking or returning so senders never starve.
		if err := e.flushFrees(p); err != nil {
			return nil, err
		}
		if !e.ready.empty() {
			continue
		}
		if e.finished() && e.outstanding == 0 {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		var woke bool
		if e.outstanding > 0 {
			woke = e.scq.WaitNonEmpty(p, w.step())
		} else {
			woke = e.dev.WaitMemChange(p, w.step())
		}
		if w.stalled(woke) {
			return nil, fmt.Errorf("%w: RD GetData on node %d (%d/%d depleted, %d reads out)",
				ErrStalled, e.dev.Node(), e.ndone, e.n, e.outstanding)
		}
	}
}

// Release implements RecvEndpoint (Alg. 3, RELEASE).
func (e *rdRCRecv) Release(p *sim.Proc, d *Data) error {
	e.releaseParts(d.Src, int(d.Remote), d.slot)
	return e.flushFrees(p)
}

func newRDRCSend(dev *verbs.Device, cfg Config, n, tpe int) *rdRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &rdRCSend{sender: newSender(dev, cfg, n, "rd", cfg.BufSize), poolBufs: pool}
	e.idBase = 1
	e.memWait = true
	e.scq = dev.CreateCQ(4*pool*n + 64) // ValidArr write completions
	e.fillPool(pool)
	e.freeArr = newRingRx(&e.endpoint, pool+1)
	e.validArr = newRingTx(&e.endpoint, pool+1)
	e.createQPs(e.scq, e.scq, 2*pool+16, 4)
	e.reap = e.reapAll
	e.collect = e.collectFrees
	e.wakeOnClose(true, e.scq)
	return e
}

func newRDRCRecv(dev *verbs.Device, cfg Config, n, tpe, senderPool int) *rdRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &rdRCRecv{
		receiver: newReceiver(dev, cfg, n, "rd"),
		dataWin:  make([]remoteWin, n),
		localArr: make([][]int, n),
		readCtx:  make(map[uint64]rdReadCtx),
	}
	e.scq = dev.CreateCQ(4*n*perSrc + 64) // read + FreeArr-write completions
	e.validArr = newRingRx(&e.endpoint, senderPool+1)
	e.localMR = e.alloc(n * perSrc * cfg.BufSize)
	e.freeArr = newRingTx(&e.endpoint, senderPool+1)
	for src := 0; src < n; src++ {
		for i := 0; i < perSrc; i++ {
			e.localArr[src] = append(e.localArr[src], (src*perSrc+i)*cfg.BufSize)
		}
	}
	e.createQPs(e.scq, e.scq, 2*perSrc+16, 4)
	e.reap = e.drain
	e.wakeOnClose(true, e.scq)
	return e
}
