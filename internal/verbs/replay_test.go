package verbs

import (
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

// TestReplayOvertakesPacedBacklog loses the first of a burst of RC Sends
// whose paced backlog outlasts the retransmission timeout. The replay must
// reach the wire ahead of the later messages still waiting in the pacer:
// released first, they would land behind the hole, be discarded and cost a
// second timeout. Every receive must also match its own message, in order.
func TestReplayOvertakesPacedBacklog(t *testing.T) {
	r := newRig(t, 2, rocev2)
	prof := r.net.Prof
	r.net.Faults().Add(fabric.FaultRule{Class: fabric.FaultRCLoss, From: 0, To: 1, Count: 1})
	qa, qb, cqa, cqb := r.rcPair(0, 1)
	const msgs, size = 120, 64 << 10
	rbuf := r.devs[1].RegisterMRNoCost(make([]byte, msgs*size))
	sbuf := r.devs[0].RegisterMRNoCost(make([]byte, msgs*size))
	var last sim.Time
	r.sim.Spawn("rc", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := qb.PostRecv(p, RecvWR{ID: uint64(i), MR: rbuf, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
				return
			}
			sbuf.Buf[i*size] = byte(i)
		}
		for i := 0; i < msgs; i++ {
			if err := qa.PostSend(p, SendWR{ID: uint64(i), Op: OpSend, MR: sbuf, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
				return
			}
		}
		var es [16]CQE
		for done := 0; done < msgs; {
			n := cqa.WaitPoll(p, es[:])
			for _, e := range es[:n] {
				if e.Status != WCSuccess {
					t.Errorf("send completion %+v", e)
				}
			}
			done += n
		}
		last = p.Now()
		var rs [msgs]CQE
		if n := cqb.Poll(p, rs[:]); n != msgs {
			t.Errorf("%d receives completed, want %d", n, msgs)
		}
	})
	// A replay stuck behind the backlog can cycle forever; bound the run.
	if err := r.sim.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if last == 0 {
		t.Fatal("burst never completed: the replay kept losing the race to the backlog")
	}
	for i := 0; i < msgs; i++ {
		if got := rbuf.Buf[i*size]; got != byte(i) {
			t.Fatalf("receive %d holds message %d: RC order broken", i, got)
		}
	}
	wire := fabric.Serialize(prof.WireBytes(size, fabric.RC), prof.LinkBandwidth)
	if limit := sim.Time(prof.TransportRetryDelay + 2*msgs*wire); last > limit {
		t.Fatalf("burst completed at %v, after one timeout plus two passes (%v): the replay waited behind the backlog", last, limit)
	}
}
