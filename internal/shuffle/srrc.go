package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// srRCSend implements the SEND endpoint with RDMA Send/Receive over the
// Reliable Connection service (§4.4.1, Fig. 5a). One QP per peer node; the
// sender transmits while it holds credit, where credit is the absolute
// number of Receive requests the peer has posted, written into creditMR by
// the receiver via RDMA Write.
type srRCSend struct {
	sender
	sent     []uint64  // per dest: sends posted on this connection
	creditMR *verbs.MR // per dest 8-byte absolute credit, written by peers
}

// waitCredit blocks until the connection to dest has spare credit, then
// consumes one unit.
func (e *srRCSend) waitCredit(p *sim.Proc, dest int) error {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if err := e.peerGone(dest); err != nil {
			return err
		}
		if e.sent[dest] < verbs.ReadUint64(e.creditMR.Buf[8*dest:]) {
			e.sent[dest]++
			return nil
		}
		if w.stalled(e.dev.WaitMemChange(p, w.step())) {
			return fmt.Errorf("%w: waiting for credit from node %d", ErrStalled, dest)
		}
	}
}

func (e *srRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	var flags uint16
	if depleted {
		flags = flagDepleted
	}
	e.lease(b, len(dest), flags, 0)
	for _, d := range dest {
		if err := e.waitCredit(p, d); err != nil {
			return err
		}
		if err := e.post(p, e.qps[d], e.dataWR(b, verbs.OpSend)); err != nil {
			if err == verbs.ErrPeerDown || e.failed[d] {
				return peerFailedErr(d)
			}
			return err
		}
	}
	return nil
}

// Send implements SendEndpoint.
func (e *srRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint: a zero-payload buffer tagged Depleted is
// multicast to every node, then in-flight sends are drained.
func (e *srRCSend) Finish(p *sim.Proc) error { return e.finish(p, e.send) }

// credits is the receiver half of the stateless credit protocol shared by
// the Send/Receive designs: issued is the absolute credit per source (the
// receives posted so far), written the value last sent back.
type credits struct {
	issued, written []uint64
}

// newCredits starts every source at the initial window, which the wiring
// communicates out of band as part of connection setup.
func newCredits(n, window int) credits {
	c := credits{issued: make([]uint64, n), written: make([]uint64, n)}
	for s := range c.issued {
		c.issued[s], c.written[s] = uint64(window), uint64(window)
	}
	return c
}

// reposted counts one receive reposted for src and reports whether the
// next credit write-back is due.
func (c *credits) reposted(src, freq int) bool {
	c.issued[src]++
	return c.issued[src]-c.written[src] >= uint64(freq)
}

// srRCRecv implements the RECEIVE endpoint over RC Send/Receive (Fig. 5b).
// It pre-posts receive buffers per source, and after every
// CreditFrequency-th post writes the absolute credit back into the sender's
// creditMR with RDMA Write.
type srRCRecv struct {
	receiver
	credits
	rcq *verbs.CQ // receive completions, shared by all QPs

	bufMR     *verbs.MR // receive slots, perSrc per source
	perSrc    int
	stageMR   *verbs.MR   // per source 8-byte staging for credit writes
	creditWin []remoteWin // where each sender keeps my credit slot
}

func (e *srRCRecv) slotOff(slot int) int { return slot * e.cfg.BufSize }

// repost returns slot to its source QP and advances the credit protocol.
func (e *srRCRecv) repost(p *sim.Proc, slot int) error {
	src := slot / e.perSrc
	if e.failed[src] {
		// The connection is torn down; the slot is dead but so is its
		// source — nothing further arrives on it.
		return nil
	}
	err := e.gate.postRecv(p, e.qps[src], verbs.RecvWR{
		ID: uint64(slot), MR: e.bufMR, Offset: e.slotOff(slot), Len: e.cfg.BufSize,
	})
	if err != nil {
		return fmt.Errorf("%w: repost recv on node %d: %v", ErrTransport, e.dev.Node(), err)
	}
	if e.reposted(src, e.cfg.CreditFrequency) {
		if err := e.writeCredit(p, src); err != nil {
			return err
		}
	}
	// Reap completed credit writes opportunistically.
	return e.reapControl(p)
}

// writeCredit transmits the absolute credit for src with RDMA Write.
func (e *srRCRecv) writeCredit(p *sim.Proc, src int) error {
	if e.failed[src] {
		return nil
	}
	e.written[src] = e.issued[src]
	verbs.PutUint64(e.stageMR.Buf[8*src:], e.issued[src])
	err := e.post(p, e.qps[src], verbs.SendWR{
		Op: verbs.OpWrite, MR: e.stageMR, Offset: 8 * src, Len: 8, Inline: true,
		RemoteKey: e.creditWin[src].rkey, RemoteOffset: e.creditWin[src].base,
	})
	if err == verbs.ErrPeerDown {
		return nil // the peer died under us; its credit no longer matters
	}
	if err != nil {
		return fmt.Errorf("%w: credit write: %v", ErrTransport, err)
	}
	traceCredit(e.dev, src, int64(e.issued[src]))
	return nil
}

// GetData implements RecvEndpoint.
func (e *srRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		var es [1]verbs.CQE
		if e.gate.poll(p, e.rcq, es[:]) == 1 {
			w.progress()
			if es[0].Status != verbs.WCSuccess {
				return nil, e.cqeErr(es[0])
			}
			slot := int(es[0].WRID)
			off := e.slotOff(slot)
			h := getHeader(e.bufMR.Buf[off:])
			if h.flags&flagDepleted != 0 {
				e.setDone(int(h.src), true)
				if e.finished() {
					e.rcq.Kick()
				}
				if h.payload == 0 {
					if err := e.repost(p, slot); err != nil {
						return nil, err
					}
					continue
				}
			}
			return &Data{
				Src:     int(h.src),
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
		// Progress is booked by a fruitful poll, not by the wakeup.
		if !e.rcq.WaitNonEmpty(p, w.step()) && !w.idle() {
			return nil, fmt.Errorf("%w: GetData on node %d (%d/%d sources depleted)",
				ErrStalled, e.dev.Node(), e.ndone, e.n)
		}
	}
}

// Release implements RecvEndpoint.
func (e *srRCRecv) Release(p *sim.Proc, d *Data) error {
	return e.repost(p, d.slot)
}

// newSRRCSend and newSRRCRecv build the per-node send and receive endpoint
// halves; comm wiring connects QPs and exchanges windows afterwards.
func newSRRCSend(dev *verbs.Device, cfg Config, n, tpe int) *srRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &srRCSend{sender: newSender(dev, cfg, n, "srrc", cfg.BufSize), sent: make([]uint64, n)}
	e.scq = dev.CreateCQ(2*pool*n + 64) // send completions for all QPs
	e.fillPool(pool)
	e.creditMR = e.register(8 * n)
	e.createQPs(e.scq, e.scq, 2*pool+16, 4)
	e.reap = e.pollOnce
	e.wakeOnClose(true, e.scq)
	return e
}

func newSRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *srRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &srRCRecv{
		receiver:  newReceiver(dev, cfg, n, "srrc"),
		credits:   newCredits(n, perSrc),
		perSrc:    perSrc,
		creditWin: make([]remoteWin, n),
	}
	slots := n * perSrc
	e.rcq = dev.CreateCQ(slots + 64)
	// Credit-write completions can pile up behind bulk data in the NIC's
	// transmit FIFO, so size this CQ to the worst case of one write per
	// posted receive.
	e.scq = dev.CreateCQ(slots + 64)
	e.bufMR = e.alloc(slots * cfg.BufSize)
	e.stageMR = e.register(8 * n)
	e.createQPs(e.scq, e.rcq, 4*n, perSrc+4)
	e.reap = e.reapControl
	e.wakeOnClose(false, e.rcq, e.scq)
	return e
}

// prime posts the initial receive windows (part of connection setup).
func (e *srRCRecv) prime(p *sim.Proc) error {
	for slot := 0; slot < e.n*e.perSrc; slot++ {
		err := e.qps[slot/e.perSrc].PostRecv(p, verbs.RecvWR{
			ID: uint64(slot), MR: e.bufMR, Offset: e.slotOff(slot), Len: e.cfg.BufSize,
		})
		if err != nil {
			return fmt.Errorf("shuffle: prime recv failed: %v", err)
		}
	}
	return nil
}
