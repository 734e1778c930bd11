// Broadcast join: when one relation is small (a dimension table), it is
// cheaper to broadcast it to every node than to repartition both sides —
// the pattern behind the paper's TPC-H Q4 plan and Figure 10(b)/(d). The
// example also demonstrates multicast transmission groups: the dimension
// table is sent only to the nodes that hold fact data.
package main

import (
	"fmt"
	"log"

	"rshuffle"
	"rshuffle/internal/engine"
	"rshuffle/internal/shuffle"
)

const (
	nodes    = 4
	dimRows  = 5_000   // small dimension table, lives on node 0
	factRows = 400_000 // per node
	threads  = 8
)

func main() {
	c := rshuffle.NewCluster(rshuffle.EDR(), nodes, threads, 1)
	cfg := rshuffle.Config{Impl: rshuffle.SQSR, Endpoints: threads}

	sch := engine.NewSchema(engine.TInt64, engine.TInt64)
	dim := engine.NewTable(sch)
	w := engine.NewWriter(dim)
	for i := 0; i < dimRows; i++ {
		w.SetInt64(0, int64(i))
		w.SetInt64(1, int64(i*10))
		w.Done()
	}
	facts := make([]*engine.Table, nodes)
	for a := 0; a < nodes; a++ {
		facts[a] = engine.NewTable(sch)
		fw := engine.NewWriter(facts[a])
		for i := 0; i < factRows; i++ {
			fw.SetInt64(0, int64((i*7+a)%dimRows))
			fw.SetInt64(1, int64(i))
			fw.Done()
		}
	}

	var total int64
	c.Sim.Spawn("query", func(p *rshuffle.Proc) {
		comm := rshuffle.BuildComm(p, c, cfg)
		done := c.Sim.NewWaitGroup("bcast-join")

		// Node 0 broadcasts the dimension table to every node (including
		// itself, via NIC loopback); other nodes send nothing but must
		// still signal end-of-stream.
		recvs := make([]*shuffle.Receive, nodes)
		for a := 0; a < nodes; a++ {
			a := a
			in := engine.Operator(&engine.Scan{T: dim})
			if a != 0 {
				in = &engine.Scan{T: engine.NewTable(sch)} // empty
			}
			sh := &shuffle.Shuffle{
				In: in, Comm: comm, Node: a,
				G:   rshuffle.Broadcast(nodes),
				Key: rshuffle.KeyInt64Col(0),
			}
			sink := &engine.Sink{In: sh}
			done.Add(1)
			sink.Run(c.Ctx(a), "send", func(p *rshuffle.Proc) { done.Done() })
			recvs[a] = &shuffle.Receive{Comm: comm, Node: a, Sch: sch}
		}

		// Each node joins the broadcast dimension against its local facts.
		sinks := make([]*engine.Sink, nodes)
		for a := 0; a < nodes; a++ {
			join := &engine.HashJoin{
				Build: recvs[a], Probe: &engine.Scan{T: facts[a]},
				BuildKey: 0, ProbeKey: 0,
			}
			sinks[a] = &engine.Sink{In: join}
			done.Add(1)
			sinks[a].Run(c.Ctx(a), "join", func(p *rshuffle.Proc) { done.Done() })
		}
		c.Sim.Spawn("report", func(p *rshuffle.Proc) {
			done.Wait(p)
			for a := 0; a < nodes; a++ {
				total += sinks[a].Rows
			}
			fmt.Printf("broadcast join matched %d fact rows in %v of virtual time\n",
				total, p.Now())
		})
	})
	if err := c.Sim.Run(); err != nil {
		log.Fatal(err)
	}
	c.Recycle()
	if want := int64(nodes * factRows); total != want {
		log.Fatalf("joined %d rows, want %d (every fact matches one dimension row)", total, want)
	}
	fmt.Println("verified: every fact row matched exactly once")
}
