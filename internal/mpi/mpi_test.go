package mpi

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"argo/internal/fabric"
	"argo/internal/sim"
)

func world(nodes, rpn int) *World {
	fab := fabric.MustNew(sim.Topology{Nodes: nodes, Sockets: 4, CoresPerSocket: 4}, fabric.DefaultParams())
	return NewWorld(fab, rpn)
}

func TestBinomialTreeShape(t *testing.T) {
	// parent/children must be mutually consistent for every size.
	for size := 1; size <= 33; size++ {
		seen := map[int]int{}
		for rel := 1; rel < size; rel++ {
			seen[rel] = parentOf(rel)
		}
		for rel := 0; rel < size; rel++ {
			for _, c := range childrenOf(rel, size) {
				if seen[c] != rel {
					t.Fatalf("size %d: child %d of %d has parent %d", size, c, rel, seen[c])
				}
				delete(seen, c)
			}
		}
		if len(seen) != 0 {
			t.Fatalf("size %d: orphan ranks %v", size, seen)
		}
	}
}

func TestSendRecv(t *testing.T) {
	w := world(2, 2)
	w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(3, []float64{1, 2, 3})
		case 3:
			got := r.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				panic("payload corrupted")
			}
			if r.P.Now() == 0 {
				panic("remote receive cost nothing")
			}
		}
	})
}

func TestSendRecvInOrder(t *testing.T) {
	w := world(2, 1)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 50; i++ {
				r.Send(1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				if got := r.Recv(0); got[0] != float64(i) {
					panic("messages reordered")
				}
			}
		}
	})
}

func TestBcast(t *testing.T) {
	for _, nodes := range []int{1, 2, 5, 8} {
		w := world(nodes, 3)
		results := make([][]float64, w.Size)
		w.Run(func(r *Rank) {
			var data []float64
			if r.ID == 2 {
				data = []float64{42, 7}
			}
			results[r.ID] = r.Bcast(2, data)
		})
		for i, got := range results {
			if len(got) != 2 || got[0] != 42 || got[1] != 7 {
				t.Fatalf("nodes=%d rank %d got %v", nodes, i, got)
			}
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	w := world(3, 2)
	results := make([][]float64, w.Size)
	w.Run(func(r *Rank) {
		vals := []float64{float64(r.ID), 1}
		results[r.ID] = r.AllreduceSum(vals)
	})
	wantSum := 0.0
	for i := 0; i < w.Size; i++ {
		wantSum += float64(i)
	}
	for i, got := range results {
		if len(got) != 2 || got[0] != wantSum || got[1] != float64(w.Size) {
			t.Fatalf("rank %d allreduce = %v, want [%v %v]", i, got, wantSum, float64(w.Size))
		}
	}
}

func TestAllgatherRing(t *testing.T) {
	f := func(nodesU, rpnU uint8) bool {
		nodes := int(nodesU)%6 + 1
		rpn := int(rpnU)%3 + 1
		w := world(nodes, rpn)
		ok := true
		w.Run(func(r *Rank) {
			mine := []float64{float64(r.ID * 10), float64(r.ID*10 + 1)}
			all := r.AllgatherRing(mine)
			if len(all) != 2*w.Size {
				ok = false
				return
			}
			for k := 0; k < w.Size; k++ {
				if all[2*k] != float64(k*10) || all[2*k+1] != float64(k*10+1) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGather(t *testing.T) {
	w := world(2, 2)
	var gathered []float64
	w.Run(func(r *Rank) {
		var data []float64
		if r.ID == 0 {
			data = make([]float64, 4*3)
			for i := range data {
				data[i] = float64(i)
			}
		}
		mine := r.Scatter(0, data, 3)
		for i := range mine {
			mine[i] = mine[i] * 2
		}
		out := r.Gather(0, mine)
		if r.ID == 0 {
			gathered = out
		}
	})
	if len(gathered) != 12 {
		t.Fatalf("gathered %d elements", len(gathered))
	}
	for i, v := range gathered {
		if v != float64(i)*2 {
			t.Fatalf("gathered[%d] = %v, want %v", i, v, float64(i)*2)
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	w := world(4, 2)
	var clocks [8]sim.Time
	w.Run(func(r *Rank) {
		r.Compute(sim.Time(r.ID) * 1000)
		r.Barrier()
		clocks[r.ID] = r.P.Now()
	})
	for i := 1; i < 8; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 7000 {
		t.Fatalf("barrier released before slowest rank: %d", clocks[0])
	}
}

func TestIntraNodeSendIsCheaper(t *testing.T) {
	w := world(2, 2)
	var local, remote sim.Time
	w.Run(func(r *Rank) {
		payload := make([]float64, 1024)
		switch r.ID {
		case 0:
			r.Send(1, payload) // same node
			local = r.P.Now()
			base := r.P.Now()
			r.Send(2, payload) // other node
			remote = r.P.Now() - base
		case 1:
			r.Recv(0)
		case 2:
			r.Recv(0)
		}
	})
	if !(local < remote) {
		t.Fatalf("intra-node send (%d) not cheaper than inter-node (%d)", local, remote)
	}
	if math.IsNaN(float64(local)) {
		t.Fatal("unreachable")
	}
}

// Mailboxes are created on first use: a world costs nothing per rank pair
// up front, and an all-to-one pattern creates exactly the edges it uses.
func TestMailboxesCreatedOnFirstUse(t *testing.T) {
	w := world(4, 15)
	if n := mailboxes(w); n != 0 {
		t.Fatalf("fresh world has %d mailboxes", n)
	}
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for src := 1; src < w.Size; src++ {
				r.Recv(src)
			}
			return
		}
		r.Send(0, []float64{float64(r.ID)})
	})
	if n := mailboxes(w); n != w.Size-1 {
		t.Fatalf("%d mailboxes after a gather, want %d", n, w.Size-1)
	}
}

// Senders and receivers racing on fresh (src,dst) pairs agree on one
// channel per pair: every message of every pair arrives, in order (run
// under -race).
func TestConcurrentMailboxFirstTouch(t *testing.T) {
	w := world(2, 8)
	const msgs = 20
	w.Run(func(r *Rank) {
		// Every rank sends to every other rank and receives from all of
		// them; receivers often reach a pair's mailbox first.
		for k := 1; k < w.Size; k++ {
			dst := (r.ID + k) % w.Size
			for m := 0; m < msgs; m++ { // msgs < mailboxCap: sends never block
				r.SendI64(dst, []int64{int64(r.ID), int64(m)})
			}
		}
		for k := 1; k < w.Size; k++ {
			src := (r.ID - k + w.Size) % w.Size
			for m := 0; m < msgs; m++ {
				got := r.RecvI64(src)
				if got[0] != int64(src) || got[1] != int64(m) {
					panic("message lost or reordered")
				}
			}
		}
	})
	if n := mailboxes(w); n != w.Size*(w.Size-1) {
		t.Fatalf("%d mailboxes, want %d", n, w.Size*(w.Size-1))
	}
}

// Goroutines racing to create one mailbox all get the same channel.
func TestBoxCreationRace(t *testing.T) {
	w := world(2, 4)
	const racers = 16
	got := make([]chan message, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = w.box(3, 5)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("racer %d got a second channel for one pair", i)
		}
	}
	if n := mailboxes(w); n != 1 {
		t.Fatalf("%d mailboxes, want 1", n)
	}
}

// mailboxes counts the (src,dst) mailboxes created so far.
func mailboxes(w *World) int {
	n := 0
	w.mail.Range(func(_ int, c []atomic.Pointer[chan message]) {
		for i := range c {
			if c[i].Load() != nil {
				n++
			}
		}
	})
	return n
}
