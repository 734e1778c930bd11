package shuffle

import (
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// TestPostRetriesFullSendQueue drives the core's post over an RC Queue Pair
// that holds one outstanding work request: the second post must find the
// send queue full, wait for and reap the first completion (returning its
// buffer to the pool), and post again; both buffers then complete in order.
func TestPostRetriesFullSendQueue(t *testing.T) {
	s := sim.New(1)
	net := fabric.New(s, quietEDR(), 2)
	devs := verbs.OpenAll(net)
	const stride = 256
	e := newSender(devs[0], Config{}.Defaulted(), 2, "sqfull", stride)
	e.scq = devs[0].CreateCQ(8)
	e.fillPool(2)
	e.createQPs(e.scq, e.scq, 1, 4) // MaxSend: 1
	e.reap = e.pollOnce
	remote := devs[1].RegisterMRNoCost(make([]byte, 2*stride))
	rcq := devs[1].CreateCQ(8)
	rqp := devs[1].CreateQP(verbs.QPConfig{Type: fabric.RC, SendCQ: rcq, RecvCQ: rcq, MaxSend: 4, MaxRecv: 4})
	must(e.qps[1].Connect(1, rqp.QPN()))
	must(rqp.Connect(0, e.qps[1].QPN()))

	var errs []error
	var freeAfterRetry []int
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			b, err := e.GetFree(p)
			if err != nil {
				errs = append(errs, err)
				return
			}
			b.Len = 8
			e.lease(b, 1, 0, 0)
			wr := e.dataWR(b, verbs.OpWrite)
			wr.RemoteKey, wr.RemoteOffset = remote.RKey, b.off
			if err := e.post(p, e.qps[1], wr); err != nil {
				errs = append(errs, err)
				return
			}
		}
		// The retry reaped the first buffer's completion before reposting.
		for {
			off, ok := e.free.TryGet()
			if !ok {
				break
			}
			freeAfterRetry = append(freeAfterRetry, off)
		}
		for _, off := range freeAfterRetry {
			e.free.Put(off)
		}
		if err := e.flush(p); err != nil {
			errs = append(errs, err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatalf("post failed: %v", errs)
	}
	if got := devs[0].Stats().Posts; got != 3 {
		t.Fatalf("posts = %d, want 3 (one rejected with a full send queue)", got)
	}
	if len(freeAfterRetry) != 1 || freeAfterRetry[0] != 0 {
		t.Fatalf("free buffers after the retry = %v, want [0]: the first completion was not reaped", freeAfterRetry)
	}
	var order []int
	for {
		off, ok := e.free.TryGet()
		if !ok {
			break
		}
		order = append(order, off)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != stride {
		t.Fatalf("buffers completed in order %v, want [0 %d]", order, stride)
	}
}
