package shuffle

import (
	"fmt"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// srUDSend implements the SEND endpoint with RDMA Send/Receive over the
// Unreliable Datagram service (§4.4.2, Fig. 6a). A single Queue Pair
// reaches every peer; messages are capped at the MTU. The same stateless
// credit protocol as RC is used, but credit arrives as small UD datagrams
// on this endpoint's own QP (UD supports no RDMA Write). The sender counts
// every data message per destination and transmits the totals at the end so
// the receiver can detect missing or in-flight packets. Sends to a dead
// peer still complete locally (the datagram vanishes on the wire), so
// buffers keep cycling; only the credit wait must not block on it.
type srUDSend struct {
	sender

	qp  *verbs.QP
	ccq *verbs.CQ // credit datagram arrivals

	creditMR   *verbs.MR // receive slots for credit datagrams
	creditSlot int       // slot size: GRH + HeaderSize

	ahs    []verbs.AH // per destination: the paired receive endpoint's QP
	sent   []uint64   // credit consumed per destination
	credit []uint64   // absolute credit granted per destination
	totals []uint64   // data messages sent per destination

	// hwmc enables one-WQE broadcast through the multicast group mgid.
	hwmc bool
	mgid uint32
}

// drainCredit consumes pending credit datagrams; absolute credit makes the
// update a simple max, so reordered or duplicated grants are harmless.
func (e *srUDSend) drainCredit(p *sim.Proc) error {
	var es [16]verbs.CQE
	for e.ccq.Len() > 0 {
		n := e.gate.poll(p, e.ccq, es[:])
		for _, c := range es[:n] {
			if c.Status != verbs.WCSuccess {
				return wcErr(c)
			}
			slot := int(c.WRID)
			off := slot * e.creditSlot
			h := getHeader(e.creditMR.Buf[off+verbs.GRHSize:])
			if h.flags&flagCredit != 0 {
				if h.value > e.credit[h.src] {
					e.credit[h.src] = h.value
				}
			}
			if err := e.postCreditRecv(p, slot); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *srUDSend) postCreditRecv(p *sim.Proc, slot int) error {
	err := e.gate.postRecv(p, e.qp, verbs.RecvWR{
		ID: uint64(slot), MR: e.creditMR, Offset: slot * e.creditSlot, Len: e.creditSlot,
	})
	if err != nil {
		return fmt.Errorf("%w: UD credit repost: %v", ErrTransport, err)
	}
	return nil
}

func (e *srUDSend) waitCredit(p *sim.Proc, dest int) error {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if e.failed[dest] {
			return peerFailedErr(dest)
		}
		if err := e.drainCredit(p); err != nil {
			return err
		}
		if e.sent[dest] < e.credit[dest] {
			e.sent[dest]++
			return nil
		}
		if w.stalled(e.ccq.WaitNonEmpty(p, w.step())) {
			return fmt.Errorf("%w: waiting for UD credit from node %d", ErrStalled, dest)
		}
	}
}

func (e *srUDSend) send(p *sim.Proc, b *Buf, dest []int, flags uint16, value uint64) error {
	wr := e.dataWR(b, verbs.OpSend)
	if e.hwmc && flags == 0 && len(dest) == e.n {
		// Native multicast broadcast: one credit unit per member, a single
		// work request, a single uplink serialization.
		e.lease(b, 1, 0, 0) // one WQE, one completion
		for _, d := range dest {
			if err := e.waitCredit(p, d); err != nil {
				return err
			}
			e.totals[d]++
		}
		wr.Dest = verbs.AH{Multicast: true, MGID: e.mgid}
		return e.post(p, e.qp, wr)
	}
	e.lease(b, len(dest), flags, value)
	for _, d := range dest {
		if err := e.waitCredit(p, d); err != nil {
			return err
		}
		wr.Dest = e.ahs[d]
		if err := e.post(p, e.qp, wr); err != nil {
			return err
		}
		if flags&flagTotal == 0 {
			e.totals[d]++
		}
	}
	return nil
}

// Send implements SendEndpoint.
func (e *srUDSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, 0, 0)
}

// Finish implements SendEndpoint: every peer receives a total-count
// datagram carrying how many data messages were sent to it, so it can keep
// waiting for reordered stragglers or declare loss (§4.4.2).
func (e *srUDSend) Finish(p *sim.Proc) error {
	for d := 0; d < e.n; d++ {
		b, err := e.GetFree(p)
		if err != nil {
			return err
		}
		b.Len = 0
		if err := e.send(p, b, []int{d}, flagTotal|flagDepleted, e.totals[d]); err != nil {
			return err
		}
	}
	return e.flush(p)
}

// srUDRecv implements the RECEIVE endpoint over UD Send/Receive (Fig. 6b).
// One QP receives from every source; posted receive slots are shared.
// Per-source counters implement the paper's out-of-order Depleted handling:
// a stream only completes once received[src] matches the sender's total,
// and a timeout after the totals are known is treated as packet loss.
type srUDRecv struct {
	receiver
	credits

	qp  *verbs.QP
	rcq *verbs.CQ // data arrivals

	bufMR    *verbs.MR
	slots    int
	slotSize int

	stageMR *verbs.MR  // per source HeaderSize staging for credit datagrams
	ahs     []verbs.AH // per source: the paired send endpoint's QP

	received   []uint64
	expected   []uint64
	totalKnown []bool
	knownCount int

	lossWait sim.Duration // accumulated wait after all totals are known
}

// count records a change to src's counters: its stream is complete once
// the total is known and every counted message arrived.
func (e *srUDRecv) count(src int) {
	e.setDone(src, e.totalKnown[src] && e.received[src] == e.expected[src])
}

func (e *srUDRecv) repost(p *sim.Proc, slot, src int) error {
	err := e.gate.postRecv(p, e.qp, verbs.RecvWR{
		ID: uint64(slot), MR: e.bufMR, Offset: slot * e.slotSize, Len: e.slotSize,
	})
	if err != nil {
		return fmt.Errorf("%w: UD repost: %v", ErrTransport, err)
	}
	if e.reposted(src, e.cfg.CreditFrequency) {
		if err := e.sendCredit(p, src); err != nil {
			return err
		}
	}
	return e.reapControl(p)
}

// sendCredit grants absolute credit to src with a small UD datagram.
func (e *srUDRecv) sendCredit(p *sim.Proc, src int) error {
	if e.failed[src] {
		return nil // the grant would vanish on the dead node's cut links
	}
	e.written[src] = e.issued[src]
	off := src * HeaderSize
	putHeader(e.stageMR.Buf[off:], header{
		flags: flagCredit, src: uint16(e.dev.Node()), value: e.issued[src],
	})
	err := e.post(p, e.qp, verbs.SendWR{
		Op: verbs.OpSend, MR: e.stageMR, Offset: off, Len: HeaderSize,
		Dest: e.ahs[src], Inline: true,
	})
	if err != nil {
		return fmt.Errorf("%w: UD credit send: %v", ErrTransport, err)
	}
	traceCredit(e.dev, src, int64(e.issued[src]))
	return nil
}

// GetData implements RecvEndpoint.
func (e *srUDRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		var es [1]verbs.CQE
		if e.gate.poll(p, e.rcq, es[:]) == 1 {
			w.progress()
			if es[0].Status != verbs.WCSuccess {
				return nil, wcErr(es[0])
			}
			slot := int(es[0].WRID)
			off := slot*e.slotSize + verbs.GRHSize
			h := getHeader(e.bufMR.Buf[off:])
			src := int(h.src)
			if h.flags&flagTotal != 0 {
				if !e.totalKnown[src] {
					e.totalKnown[src] = true
					e.knownCount++
				}
				e.expected[src] = h.value
				e.count(src)
				if err := e.repost(p, slot, src); err != nil {
					return nil, err
				}
				if e.finished() {
					e.rcq.Kick()
				}
				continue
			}
			e.received[src]++
			if e.count(src); e.finished() {
				e.rcq.Kick()
			}
			return &Data{
				Src:     src,
				Payload: e.bufMR.Buf[off+HeaderSize : off+HeaderSize+h.payload],
				slot:    slot,
			}, nil
		}
		if e.finished() {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		q := w.step()
		if !e.rcq.WaitNonEmpty(p, q) {
			if e.knownCount == e.n {
				// All totals known but counts short: either packets are
				// still in flight (common, reordering) or lost (rare).
				if e.lossWait += q; e.lossWait > e.cfg.DepletedTimeout {
					return nil, fmt.Errorf("%w on node %d: %s",
						ErrDataLoss, e.dev.Node(), e.lossReport())
				}
			}
			if !w.idle() {
				return nil, fmt.Errorf("%w: UD GetData on node %d (%d/%d totals)",
					ErrStalled, e.dev.Node(), e.knownCount, e.n)
			}
		} else {
			w.progress()
			e.lossWait = 0
		}
	}
}

func (e *srUDRecv) lossReport() string {
	missing := 0
	for s := 0; s < e.n; s++ {
		missing += int(e.expected[s] - e.received[s])
	}
	return fmt.Sprintf("%d message(s) missing", missing)
}

// Release implements RecvEndpoint.
func (e *srUDRecv) Release(p *sim.Proc, d *Data) error {
	return e.repost(p, d.slot, d.Src)
}

func newSRUDSend(dev *verbs.Device, cfg Config, n, tpe int) *srUDSend {
	mtu := dev.Network().Prof.MTU
	pool := tpe * n * cfg.BuffersPerPeer
	e := &srUDSend{
		sender:     newSender(dev, cfg, n, "srud", mtu),
		creditSlot: verbs.GRHSize + HeaderSize,
		sent:       make([]uint64, n),
		credit:     make([]uint64, n),
		totals:     make([]uint64, n),
		ahs:        make([]verbs.AH, n),
	}
	e.local = true
	// Broadcast posts one send per group member per buffer, and completions
	// sit in the CQ until the application polls; size for the worst case.
	// Send completions fire at wire time.
	e.scq = dev.CreateCQ(pool*n + 64)
	creditSlots := 4 * n
	e.ccq = dev.CreateCQ(creditSlots + 16)
	e.fillPool(pool)
	e.creditMR = e.register(creditSlots * e.creditSlot)
	e.qp = dev.CreateQP(verbs.QPConfig{
		Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.ccq,
		MaxSend: pool*n + 16, MaxRecv: creditSlots + 4,
	})
	e.reap = e.pollOnce
	e.wakeOnClose(false, e.ccq, e.scq)
	return e
}

// primeSend posts the credit-datagram receive windows.
func (e *srUDSend) primeSend(p *sim.Proc) error {
	for slot := 0; slot < 4*e.n; slot++ {
		if err := e.postCreditRecv(p, slot); err != nil {
			return err
		}
	}
	return nil
}

func newSRUDRecv(dev *verbs.Device, cfg Config, n, tpe int) *srUDRecv {
	mtu := dev.Network().Prof.MTU
	perSrc := tpe * cfg.RecvBuffersPerPeer
	slots := n * perSrc
	e := &srUDRecv{
		receiver: newReceiver(dev, cfg, n, "srud"),
		credits:  newCredits(n, perSrc),
		slots:    slots, slotSize: verbs.GRHSize + mtu,
		ahs:        make([]verbs.AH, n),
		received:   make([]uint64, n),
		expected:   make([]uint64, n),
		totalKnown: make([]bool, n),
	}
	e.rcq = dev.CreateCQ(slots + 64)
	// Credit-datagram completions queue behind bulk data on the wire.
	e.scq = dev.CreateCQ(slots + 64)
	e.bufMR = e.alloc(slots * e.slotSize)
	e.stageMR = e.register(n * HeaderSize)
	e.qp = dev.CreateQP(verbs.QPConfig{
		Type: fabric.UD, SendCQ: e.scq, RecvCQ: e.rcq,
		MaxSend: 4 * n, MaxRecv: slots + 4,
	})
	e.reap = e.reapControl
	e.wakeOnClose(false, e.rcq, e.scq)
	return e
}

// prime posts every data receive slot (part of connection setup).
func (e *srUDRecv) prime(p *sim.Proc) error {
	for slot := 0; slot < e.slots; slot++ {
		err := e.qp.PostRecv(p, verbs.RecvWR{
			ID: uint64(slot), MR: e.bufMR, Offset: slot * e.slotSize, Len: e.slotSize,
		})
		if err != nil {
			return fmt.Errorf("shuffle: UD prime failed: %v", err)
		}
	}
	return nil
}
