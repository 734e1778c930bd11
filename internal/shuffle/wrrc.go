package shuffle

import (
	"fmt"

	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// The WR/RC endpoint implements the paper's first future-work item: a
// shuffling endpoint based on the one-sided RDMA Write primitive. It is the
// push-side mirror of the RDMA Read design (§4.4.3):
//
//   - the RECEIVE endpoint owns the data buffers; it grants empty slot
//     addresses to each sender through the sender's SlotArr circular queue
//     (the dual of FreeArr);
//   - SEND writes the full transmission buffer directly into a granted
//     remote slot with RDMA Write, then announces it through the receiver's
//     ValidArr; both writes ride the same QP, so the Reliable Connection
//     ordering guarantees the data has landed before the announcement;
//   - RELEASE re-grants the slot to its sender.
//
// Compared with RDMA Read, buffer reuse needs no remote notification: the
// sender's buffer is free as soon as its Write completions arrive, which is
// why the design behaves better under broadcast.

// wrRCSend implements the SEND endpoint over one-sided RDMA Write. A dead
// receiver never grants slots again, so blocked SEND calls fail with
// ErrPeerFailed instead of running down the stall timeout.
type wrRCSend struct {
	sender
	slotArr  ringRx      // slot grants from each receiver
	slotWin  []remoteWin // each receiver's slot MR (data destination)
	validArr ringTx      // announcements into each receiver's ValidArr
}

// popSlot takes one granted remote slot for dest, blocking until the
// receiver grants one. Grants arrive over the reverse direction of the
// connection to dest, so the wait fails fast once that connection errors.
func (e *wrRCSend) popSlot(p *sim.Proc, dest int) (int, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		if err := e.peerGone(dest); err != nil {
			return 0, err
		}
		if v, ok := e.slotArr.pop(dest); ok {
			off, _, _ := unpackSlot(v)
			return off, nil
		}
		if err := e.reapAll(p); err != nil {
			return 0, err
		}
		if w.stalled(e.dev.WaitMemChange(p, w.step())) {
			return 0, fmt.Errorf("%w: WR waiting for slot grant from node %d", ErrStalled, dest)
		}
	}
}

func (e *wrRCSend) send(p *sim.Proc, b *Buf, dest []int, depleted bool) error {
	e.lease(b, len(dest), 0, 0)
	length := HeaderSize + b.Len
	for _, d := range dest {
		slot, err := e.popSlot(p, d)
		if err != nil {
			return err
		}
		// Data write into the granted remote slot.
		wr := e.dataWR(b, verbs.OpWrite)
		wr.RemoteKey, wr.RemoteOffset = e.slotWin[d].rkey, e.slotWin[d].base+slot
		err = e.post(p, e.qps[d], wr)
		if err == nil {
			// Announcement write, ordered behind the data on the same QP.
			err = e.push(p, &e.validArr, d, packSlot(slot, length, depleted))
		}
		if err == verbs.ErrPeerDown {
			return peerFailedErr(d)
		}
		if err != nil {
			return err
		}
	}
	return e.reapAll(p)
}

// Send implements SendEndpoint.
func (e *wrRCSend) Send(p *sim.Proc, b *Buf, dest []int) error {
	return e.send(p, b, dest, false)
}

// Finish implements SendEndpoint.
func (e *wrRCSend) Finish(p *sim.Proc) error { return e.finish(p, e.send) }

// wrRCRecv implements the RECEIVE endpoint over one-sided RDMA Write: it
// owns the data slots, polls its ValidArr queues for announcements, and
// re-grants consumed slots. A dead sender's stream fails GETDATA once it is
// known to be incomplete instead of polling entries never to be written.
type wrRCRecv struct {
	receiver
	slotMR   *verbs.MR // data slots, perSrc per source
	perSrc   int
	validArr ringRx // announcements from each sender
	slotArr  ringTx // grants into each sender's SlotArr
}

// grant hands slot (an offset within slotMR) to sender src.
func (e *wrRCRecv) grant(p *sim.Proc, src, slot int) error {
	if e.failed[src] {
		return nil // the dead sender will never consume the grant
	}
	err := e.push(p, &e.slotArr, src, packSlot(slot, 0, false))
	if err == verbs.ErrPeerDown {
		return nil
	}
	if err != nil {
		return err
	}
	traceCredit(e.dev, src, int64(slot))
	return e.reapControl(p)
}

// GetData implements RecvEndpoint: announcements arrive purely through
// memory, so the wait path watches for remote writes.
func (e *wrRCRecv) GetData(p *sim.Proc) (*Data, error) {
	w := newWaiter(e.cfg.StallTimeout)
	for {
		for src := 0; src < e.n; src++ {
			v, ok := e.validArr.pop(src)
			if !ok {
				continue
			}
			slot, _, dep := unpackSlot(v)
			h := getHeader(e.slotMR.Buf[slot:])
			if dep {
				e.setDone(src, true)
				if e.finished() {
					e.dev.KickMemWaiters()
				}
			}
			if h.payload == 0 {
				// Marker: re-grant immediately.
				if err := e.grant(p, src, slot); err != nil {
					return nil, err
				}
				continue
			}
			return &Data{
				Src:     int(h.src),
				Payload: e.slotMR.Buf[slot+HeaderSize : slot+HeaderSize+h.payload],
				slot:    slot,
			}, nil
		}
		if e.finished() {
			return nil, nil
		}
		if s, ok := e.missingFailed(); ok {
			return nil, peerFailedErr(s)
		}
		if w.stalled(e.dev.WaitMemChange(p, w.step())) {
			return nil, fmt.Errorf("%w: WR GetData on node %d (%d/%d depleted)",
				ErrStalled, e.dev.Node(), e.ndone, e.n)
		}
	}
}

// Release implements RecvEndpoint.
func (e *wrRCRecv) Release(p *sim.Proc, d *Data) error {
	// The slot belongs to the source that filled it; slots are partitioned
	// per source, so recover the source from the slot index.
	src := d.slot / (e.perSrc * e.cfg.BufSize)
	return e.grant(p, src, d.slot)
}

func newWRRCSend(dev *verbs.Device, cfg Config, n, tpe, grantCap int) *wrRCSend {
	pool := tpe * n * cfg.BuffersPerPeer
	e := &wrRCSend{sender: newSender(dev, cfg, n, "wr", cfg.BufSize), slotWin: make([]remoteWin, n)}
	e.idBase = 1
	e.scq = dev.CreateCQ(4*pool*n + 64) // data + announcement write completions
	e.fillPool(pool)
	e.slotArr = newRingRx(&e.endpoint, grantCap)
	e.validArr = newRingTx(&e.endpoint, grantCap)
	e.createQPs(e.scq, e.scq, 4*pool+16, 4)
	e.reap = e.reapAll
	e.collect = e.reapAll
	e.wakeOnClose(true, e.scq)
	return e
}

func newWRRCRecv(dev *verbs.Device, cfg Config, n, tpe int) *wrRCRecv {
	perSrc := tpe * cfg.RecvBuffersPerPeer
	e := &wrRCRecv{receiver: newReceiver(dev, cfg, n, "wr"), perSrc: perSrc}
	e.scq = dev.CreateCQ(4*n*perSrc + 64) // grant-write completions
	e.slotMR = e.alloc(n * perSrc * cfg.BufSize)
	e.validArr = newRingRx(&e.endpoint, perSrc+1)
	e.slotArr = newRingTx(&e.endpoint, perSrc+1)
	e.createQPs(e.scq, e.scq, 2*perSrc+16, 4)
	e.reap = e.reapControl
	e.wakeOnClose(true, e.scq)
	return e
}
