package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"argo"
	"argo/internal/harness"
	"argo/internal/pairingheap"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

// workload is one benchmark input set. make generates the inputs and the
// serial reference from the seed; both happen once per run, outside every
// timed region.
type workload struct {
	name string
	make func(seed int64) launcher
}

// launcher drives one kind of launch on a fresh paper-default cluster.
// The timed setup (setup_s) is argo.NewCluster plus load; the timed run
// (run_s) is run; verify and covers are untimed. tr is nil in untraced
// runs. A launcher keeps no reference to the cluster past run, so the next
// launch's GC frees it.
type launcher interface {
	// load allocates the launch's global memory and initializes it with
	// the generated inputs.
	load(c *argo.Cluster)
	// run executes one launch and returns its virtual makespan in ns.
	run(c *argo.Cluster, tr *tracer) int64
	// verify checks the launch's answer against the serial reference.
	verify() error
	// covers checks that the launch exercised the layer the workload was
	// chosen for.
	covers(s *sample) error
}

// The paper-default machine: 4 nodes, P/S3, 64 MiB of global memory.
const nodes = 4

func paperConfig() argo.Config { return argo.DefaultConfig(nodes) }

// workloads: why each was chosen is in README.md and BENCHMARK.json.
var workloads = []workload{
	{"lu", newLU},
	{"cg", newCG},
	{"pq-hqdl", newPQ},
	{"paper-quick", newPaperQuick},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closeEnough is harness.closeEnough: relative tolerance 1e-6, absolute
// below magnitude 1.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(b), 1)
}

func compareF64(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !closeEnough(got[i], want[i]) {
			return fmt.Errorf("%s[%d] = %g, reference %g", what, i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// lu: blocked right-looking LU without pivoting (SPLASH-2, Fig. 13a)
// ---------------------------------------------------------------------------

type luParams struct{ n, block, tpn int }

var luDefault = luParams{n: 768, block: 32, tpn: 4}

type luLaunch struct {
	p    luParams
	a    []float64 // generated input, row-major
	ref  []float64 // serial factorization of a
	ga   argo.F64Slice
	last []float64
}

func newLU(seed int64) launcher { return newLUWith(luDefault, seed) }

func newLUWith(p luParams, seed int64) *luLaunch {
	rng := rand.New(rand.NewSource(seed))
	n := p.n
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(2 * n) // diagonal dominance: no pivoting needed
	}
	l := &luLaunch{p: p, a: a}
	l.ref = append([]float64(nil), a...)
	luSerial(l.ref, n, p.block)
	return l
}

func (l *luLaunch) load(c *argo.Cluster) {
	l.ga = c.AllocF64(l.p.n * l.p.n)
	c.InitF64(l.ga, l.a)
}

func (l *luLaunch) run(c *argo.Cluster, tr *tracer) int64 {
	n, b := l.p.n, l.p.block
	nb := n / b
	ga := l.ga
	owner := func(bi, bj int) int { return (bi*nb + bj) % (nodes * l.p.tpn) }
	blockCost := int64(b*b*b) * lu.FlopCost
	makespan := c.Run(l.p.tpn, func(th *argo.Thread) {
		get := func(dst []float64, bi, bj int) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				s := tr.begin(th)
				th.ReadF64s(ga, off, off+b, dst[r*b:(r+1)*b])
				tr.end(th, s, spReadRange, 1)
			}
		}
		put := func(bi, bj int, blk []float64) {
			for r := 0; r < b; r++ {
				off := (bi*b+r)*n + bj*b
				s := tr.begin(th)
				th.WriteF64s(ga, off, blk[r*b:(r+1)*b])
				tr.end(th, s, spWriteRange, 1)
			}
		}
		diag := make([]float64, b*b)
		blk := make([]float64, b*b)
		left := make([]float64, b*b)
		up := make([]float64, b*b)
		for k := 0; k < nb; k++ {
			if owner(k, k) == th.Rank {
				get(diag, k, k)
				factorDiag(diag, b)
				put(k, k, diag)
				th.Compute(blockCost / 3)
			}
			tr.barrier(th)
			get(diag, k, k)
			for j := k + 1; j < nb; j++ {
				if owner(k, j) == th.Rank {
					get(blk, k, j)
					solveRow(diag, blk, b)
					put(k, j, blk)
					th.Compute(blockCost / 2)
				}
			}
			for i := k + 1; i < nb; i++ {
				if owner(i, k) == th.Rank {
					get(blk, i, k)
					solveCol(diag, blk, b)
					put(i, k, blk)
					th.Compute(blockCost / 2)
				}
			}
			tr.barrier(th)
			for i := k + 1; i < nb; i++ {
				loaded := false
				for j := k + 1; j < nb; j++ {
					if owner(i, j) != th.Rank {
						continue
					}
					if !loaded {
						get(left, i, k)
						loaded = true
					}
					get(up, k, j)
					get(blk, i, j)
					mulSub(blk, left, up, b)
					put(i, j, blk)
					th.Compute(blockCost)
				}
			}
			tr.barrier(th)
		}
	})
	l.last = c.DumpF64(ga)
	return makespan
}

func (l *luLaunch) verify() error { return compareF64("lu: A", l.last, l.ref) }

func (l *luLaunch) covers(s *sample) error {
	if s.stats.DelegatedSections != 0 {
		return fmt.Errorf("lu: %d delegated sections, want 0", s.stats.DelegatedSections)
	}
	if s.stats.Writebacks == 0 {
		return errors.New("lu: no writebacks")
	}
	return nil
}

// luSerial factors the n×n matrix a in place with the blocked algorithm
// the parallel launch runs, so the two agree bit for bit.
func luSerial(a []float64, n, b int) {
	nb := n / b
	get := func(bi, bj int) []float64 {
		blk := make([]float64, b*b)
		for r := 0; r < b; r++ {
			copy(blk[r*b:(r+1)*b], a[(bi*b+r)*n+bj*b:])
		}
		return blk
	}
	put := func(bi, bj int, blk []float64) {
		for r := 0; r < b; r++ {
			copy(a[(bi*b+r)*n+bj*b:(bi*b+r)*n+bj*b+b], blk[r*b:(r+1)*b])
		}
	}
	for k := 0; k < nb; k++ {
		diag := get(k, k)
		factorDiag(diag, b)
		put(k, k, diag)
		for j := k + 1; j < nb; j++ {
			blk := get(k, j)
			solveRow(diag, blk, b)
			put(k, j, blk)
		}
		for i := k + 1; i < nb; i++ {
			blk := get(i, k)
			solveCol(diag, blk, b)
			put(i, k, blk)
		}
		for i := k + 1; i < nb; i++ {
			left := get(i, k)
			for j := k + 1; j < nb; j++ {
				blk := get(i, j)
				mulSub(blk, left, get(k, j), b)
				put(i, j, blk)
			}
		}
	}
}

// The block kernels below are those of package lu, which does not export
// them.

// factorDiag factors a b×b block in place (L unit lower, U upper).
func factorDiag(a []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= a[k*b+k]
			lik := a[i*b+k]
			for j := k + 1; j < b; j++ {
				a[i*b+j] -= lik * a[k*b+j]
			}
		}
	}
}

// solveRow computes blk = L(diag)⁻¹·blk.
func solveRow(diag, blk []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			lik := diag[i*b+k]
			for j := 0; j < b; j++ {
				blk[i*b+j] -= lik * blk[k*b+j]
			}
		}
	}
}

// solveCol computes blk = blk·U(diag)⁻¹.
func solveCol(diag, blk []float64, b int) {
	for k := 0; k < b; k++ {
		ukk := diag[k*b+k]
		for i := 0; i < b; i++ {
			blk[i*b+k] /= ukk
		}
		for j := k + 1; j < b; j++ {
			ukj := diag[k*b+j]
			for i := 0; i < b; i++ {
				blk[i*b+j] -= blk[i*b+k] * ukj
			}
		}
	}
}

// mulSub computes c -= a·bb for b×b blocks.
func mulSub(c, a, bb []float64, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			aik := a[i*b+k]
			for j := 0; j < b; j++ {
				c[i*b+j] -= aik * bb[k*b+j]
			}
		}
	}
}

// ---------------------------------------------------------------------------
// cg: NAS conjugate gradient (Fig. 13f)
// ---------------------------------------------------------------------------

type cgParams struct{ n, perRow, iters, tpn int }

var cgDefault = cgParams{n: 65536, perRow: 32, iters: 8, tpn: 4}

// csr is a sparse matrix in compressed-row form.
type csr struct {
	rowPtr []int32
	colIdx []int32
	val    []float64
}

type cgLaunch struct {
	p   cgParams
	m   csr
	rhs []float64
	ref []float64 // serial solution x

	gd, gr, gx, gq, gparts argo.F64Slice
	last                   []float64
}

func newCG(seed int64) launcher { return newCGWith(cgDefault, seed) }

func newCGWith(p cgParams, seed int64) *cgLaunch {
	rng := rand.New(rand.NewSource(seed))
	n := p.n
	type ent struct {
		j int32
		v float64
	}
	rows := make([][]ent, n)
	for i := 0; i < n; i++ {
		for k := 0; k < p.perRow/2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			rows[i] = append(rows[i], ent{int32(j), v})
			rows[j] = append(rows[j], ent{int32(i), v})
		}
	}
	m := csr{rowPtr: make([]int32, n+1)}
	for i, row := range rows {
		diag := 1.0 // diagonal dominance makes the matrix SPD
		for _, e := range row {
			diag += math.Abs(e.v)
		}
		m.colIdx = append(m.colIdx, int32(i))
		m.val = append(m.val, diag)
		for _, e := range row {
			m.colIdx = append(m.colIdx, e.j)
			m.val = append(m.val, e.v)
		}
		m.rowPtr[i+1] = int32(len(m.val))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()*2 - 1
	}
	l := &cgLaunch{p: p, m: m, rhs: rhs}
	l.ref = cgSerial(m, rhs, p.iters)
	return l
}

// cgSerial runs the reference CG iterations and returns x.
func cgSerial(m csr, b []float64, iters int) []float64 {
	n := len(b)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	d := append([]float64(nil), b...)
	q := make([]float64, n)
	dot := func(a, b []float64) (s float64) {
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	rho := dot(r, r)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			var acc float64
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				acc += m.val[k] * d[m.colIdx[k]]
			}
			q[i] = acc
		}
		alpha := rho / dot(d, q)
		for i := range x {
			x[i] += alpha * d[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := dot(r, r)
		beta := rhoNew / rho
		rho = rhoNew
		for i := range d {
			d[i] = r[i] + beta*d[i]
		}
	}
	return x
}

func (l *cgLaunch) load(c *argo.Cluster) {
	n := l.p.n
	l.gd = c.AllocF64(n) // direction vector: shared, rewritten per iteration
	l.gr = c.AllocF64(n) // residual: block-private pages
	l.gx = c.AllocF64(n) // solution: block-private pages
	l.gq = c.AllocF64(n) // A·d: block-private pages
	l.gparts = c.AllocF64(2 * nodes * l.p.tpn)
	c.InitF64(l.gd, l.rhs)
	c.InitF64(l.gr, l.rhs)
}

func (l *cgLaunch) run(c *argo.Cluster, tr *tracer) int64 {
	n, m := l.p.n, &l.m
	nt := nodes * l.p.tpn
	gd, gr, gx, gq, gparts := l.gd, l.gr, l.gx, l.gq, l.gparts
	makespan := c.Run(l.p.tpn, func(th *argo.Thread) {
		lo, hi := wload.BlockRange(n, nt, th.Rank)
		cnt := hi - lo
		r := make([]float64, cnt)
		x := make([]float64, cnt)
		q := make([]float64, cnt)
		upd := make([]float64, cnt)
		d := make([]float64, cnt)
		all := make([]float64, nt)
		read := func(s argo.F64Slice, lo, hi int, dst []float64) {
			t := tr.begin(th)
			th.ReadF64s(s, lo, hi, dst)
			tr.end(th, t, spReadRange, 1)
		}
		write := func(s argo.F64Slice, lo int, src []float64) {
			t := tr.begin(th)
			th.WriteF64s(s, lo, src)
			tr.end(th, t, spWriteRange, 1)
		}
		dotLocal := func(a, b []float64) (s float64) {
			for i := range a {
				s += a[i] * b[i]
			}
			return s
		}
		sumParts := func(slot int) (s float64) {
			read(gparts, slot*nt, slot*nt+nt, all)
			for _, v := range all {
				s += v
			}
			return s
		}
		read(gr, lo, hi, r)
		write(gparts, th.Rank, []float64{dotLocal(r, r)})
		tr.barrier(th)
		rho := sumParts(0)
		for it := 0; it < l.p.iters; it++ {
			read(gd, lo, hi, d)
			// The matvec reads d element-wise through the page cache, as
			// the Pthreads original reads a shared array.
			flops := 0
			for i := lo; i < hi; i++ {
				t := tr.begin(th)
				var acc float64
				k0, k1 := m.rowPtr[i], m.rowPtr[i+1]
				for k := k0; k < k1; k++ {
					acc += m.val[k] * th.GetF64(gd, int(m.colIdx[k]))
				}
				tr.end(th, t, spGet, int32(k1-k0))
				q[i-lo] = acc
				flops += int(k1 - k0)
			}
			th.Compute(int64(flops) * cg.FlopCost)
			write(gq, lo, q)
			write(gparts, nt+th.Rank, []float64{dotLocal(d, q)})
			tr.barrier(th)
			alpha := rho / sumParts(1)
			read(gx, lo, hi, x)
			read(gr, lo, hi, r)
			read(gq, lo, hi, q)
			for i := range x {
				x[i] += alpha * d[i]
				r[i] -= alpha * q[i]
			}
			write(gx, lo, x)
			write(gr, lo, r)
			write(gparts, th.Rank, []float64{dotLocal(r, r)})
			tr.barrier(th)
			rhoNew := sumParts(0)
			beta := rhoNew / rho
			rho = rhoNew
			for i := range upd {
				upd[i] = r[i] + beta*d[i]
			}
			write(gd, lo, upd)
			tr.barrier(th)
		}
	})
	l.last = c.DumpF64(gx)
	return makespan
}

func (l *cgLaunch) verify() error { return compareF64("cg: x", l.last, l.ref) }

func (l *cgLaunch) covers(s *sample) error {
	if s.stats.SIFiltered == 0 {
		return errors.New("cg: Pyxis kept no page across SI (si_filtered = 0)")
	}
	return nil
}

// ---------------------------------------------------------------------------
// pq-hqdl: priority queue under HQDL (Fig. 12)
// ---------------------------------------------------------------------------

type pqParams struct{ tpn, ops, workUnits, preload int }

var pqDefault = pqParams{tpn: 15, ops: 800, workUnits: 16, preload: 512}

// pqKeyRange bounds the generated keys (pqbench draws from [0, 2^20)).
const pqKeyRange = 1 << 20

type pqLaunch struct {
	p       pqParams
	seed    int64
	preload []int64
	// stream holds, per thread and operation, the key to insert or -1 for
	// an extract_min.
	stream []int64

	heap   *pairingheap.DSMHeap
	lock   *argo.HQDL    // holds the cluster: run drops it
	gIn    argo.I64Slice // the stream, one block per thread
	gOut   argo.I64Slice // extracted keys, one block per thread, -1 = empty
	gDrain argo.I64Slice // the final drain, in extraction order
	gLeft  argo.I64Slice // [remaining elements after the operations]

	// want counts each key the launch inserts, preload included, and
	// inserted is their total: the serial reference.
	want     map[int64]int
	inserted int64

	out, drain []int64
	left       int64
	ops        int64
}

func newPQ(seed int64) launcher { return newPQWith(pqDefault, seed) }

func newPQWith(p pqParams, seed int64) *pqLaunch {
	rng := rand.New(rand.NewSource(seed))
	l := &pqLaunch{p: p, seed: seed}
	l.preload = make([]int64, p.preload)
	for i := range l.preload {
		l.preload[i] = rng.Int63n(pqKeyRange)
	}
	// Every thread does exactly half inserts and half extracts, in a
	// seeded order, so the queue's size over a launch, and with it the
	// virtual work, does not drift with the seed.
	l.stream = make([]int64, nodes*p.tpn*p.ops)
	for t := 0; t < nodes*p.tpn; t++ {
		ops := l.stream[t*p.ops : (t+1)*p.ops]
		for i := range ops {
			ops[i] = -1
			if i%2 == 0 {
				ops[i] = rng.Int63n(pqKeyRange)
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	l.ops = int64(len(l.stream))
	l.want = map[int64]int{}
	for _, k := range append(append([]int64(nil), l.preload...), l.stream...) {
		if k >= 0 {
			l.want[k]++
			l.inserted++
		}
	}
	return l
}

func (l *pqLaunch) load(c *argo.Cluster) {
	nops := len(l.stream)
	l.heap = pairingheap.NewDSMHeap(c, l.p.preload+nops+16)
	l.lock = argo.NewHQDL(c)
	l.gIn = c.AllocI64(nops)
	l.gOut = c.AllocI64(nops)
	l.gDrain = c.AllocI64(l.p.preload + nops)
	l.gLeft = c.AllocI64(1)
	c.InitI64(l.gIn, l.stream)
}

func (l *pqLaunch) run(c *argo.Cluster, tr *tracer) int64 {
	p, heap, lock := l.p, l.heap, l.lock
	l.lock = nil
	makespan := c.RunSeeded(p.tpn, l.seed, func(th *argo.Thread) {
		if th.Rank == 0 {
			for _, k := range l.preload {
				heap.Insert(th, k)
			}
		}
		tr.initDone(th)
		lo := th.Rank * p.ops
		ops := make([]int64, p.ops)
		out := make([]int64, p.ops)
		s := tr.begin(th)
		th.ReadI64s(l.gIn, lo, lo+p.ops, ops)
		tr.end(th, s, spReadRange, 1)
		arr := make([]int64, 64)
		for k, key := range ops {
			for u := 0; u < p.workUnits; u++ { // thread-local work
				arr[th.Rng.Intn(64)]++
				arr[th.Rng.Intn(64)]--
			}
			th.Compute(int64(p.workUnits) * pqbench.WorkUnitCost)
			s := tr.begin(th)
			if key >= 0 {
				lock.Delegate(th, func(h *argo.Thread) { heap.Insert(h, key) })
				tr.end(th, s, spDelegate, 1)
				out[k] = -1
			} else {
				var got int64 = -1
				lock.DelegateWait(th, func(h *argo.Thread) {
					if v, ok := heap.ExtractMin(h); ok {
						got = v
					}
				})
				tr.end(th, s, spDelegateWait, 1)
				out[k] = got
			}
			runtime.Gosched()
		}
		s = tr.begin(th)
		th.WriteI64s(l.gOut, lo, out)
		tr.end(th, s, spWriteRange, 1)
		tr.barrier(th)
		if th.Rank == 0 {
			// The final drain: everything left, in extraction order.
			left := heap.Len(th)
			drain := make([]int64, left)
			for i := range drain {
				drain[i], _ = heap.ExtractMin(th)
			}
			s := tr.begin(th)
			th.WriteI64s(l.gDrain, 0, drain)
			tr.end(th, s, spWriteRange, 1)
			th.SetI64(l.gLeft, 0, int64(left))
		}
		tr.barrier(th)
	})
	l.out = c.DumpI64(l.gOut)
	l.left = c.DumpI64(l.gLeft)[0]
	l.drain = c.DumpI64(l.gDrain)[:max(0, min(int(l.left), l.gDrain.Len))]
	return makespan
}

// verify checks key conservation against the reference multiset of
// inserted keys: inserted = extracted + remaining, every key comes out as
// often as it went in, and the final drain is sorted.
func (l *pqLaunch) verify() error {
	if !sort.SliceIsSorted(l.drain, func(i, j int) bool { return l.drain[i] < l.drain[j] }) {
		return errors.New("pq-hqdl: final drain is not sorted")
	}
	got := make(map[int64]int, len(l.want))
	var extracted int64
	for i, k := range l.stream {
		if k < 0 && l.out[i] >= 0 {
			extracted++
			got[l.out[i]]++
		}
	}
	for _, k := range l.drain {
		got[k]++
	}
	if l.inserted != extracted+l.left {
		return fmt.Errorf("pq-hqdl: inserted %d != extracted %d + remaining %d", l.inserted, extracted, l.left)
	}
	for k, c := range l.want {
		if got[k] != c {
			return fmt.Errorf("pq-hqdl: key %d inserted %d times, removed %d times", k, c, got[k])
		}
	}
	if len(got) != len(l.want) {
		return errors.New("pq-hqdl: removed a key that was never inserted")
	}
	return nil
}

// covers checks that the work ran through HQDL: every operation is a
// critical section, and only the helper's own section of each batch is
// executed without delegation, so delegated sections can fall short of the
// operation count by at most the number of batches (one SI fence each).
func (l *pqLaunch) covers(s *sample) error {
	d := s.stats.DelegatedSections
	if d == 0 || d > l.ops {
		return fmt.Errorf("pq-hqdl: %d delegated sections for %d operations", d, l.ops)
	}
	if own := l.ops - d; own > s.stats.SIFences {
		return fmt.Errorf("pq-hqdl: %d undelegated sections but only %d SI fences", own, s.stats.SIFences)
	}
	return nil
}

// ---------------------------------------------------------------------------
// paper-quick: the whole harness suite at quick size
// ---------------------------------------------------------------------------

// quickLaunch runs one pass over harness.All() with quick=true. Its
// experiments build their clusters internally, so setup_s and virtual_ms
// come from a canary launch that precedes the pass: a small CG solve over
// generated inputs on a paper-default cluster.
type quickLaunch struct {
	canary *cgLaunch
	ran    map[string]bool
	errs   []string
}

var quickCanary = cgParams{n: 8192, perRow: 16, iters: 2, tpn: 4}

func newPaperQuick(seed int64) launcher {
	return &quickLaunch{canary: newCGWith(quickCanary, seed)}
}

func (q *quickLaunch) load(c *argo.Cluster) { q.canary.load(c) }

func (q *quickLaunch) run(c *argo.Cluster, tr *tracer) int64 {
	makespan := q.canary.run(c, tr)
	q.ran = map[string]bool{}
	q.errs = q.errs[:0]
	var out bytes.Buffer
	for _, e := range harness.All() {
		out.Reset()
		t0 := tr.hostNow()
		if err := runExperiment(e, &out); err != nil {
			q.errs = append(q.errs, err.Error())
		} else if bytes.Contains(out.Bytes(), []byte("BADCHECK")) {
			q.errs = append(q.errs, e.ID+": BADCHECK")
		}
		tr.experimentSpan(e.ID, t0, tr.hostNow())
		q.ran[e.ID] = true
	}
	return makespan
}

// runExperiment runs e at quick size, turning a panic on the calling
// goroutine into an error.
func runExperiment(e harness.Experiment, w *bytes.Buffer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", e.ID, r)
		}
	}()
	e.Run(w, true)
	return nil
}

func (q *quickLaunch) verify() error {
	if err := q.canary.verify(); err != nil {
		return fmt.Errorf("paper-quick canary: %w", err)
	}
	if len(q.errs) > 0 {
		return errors.New("paper-quick: " + strings.Join(q.errs, "; "))
	}
	return nil
}

func (q *quickLaunch) covers(*sample) error {
	var missing []string
	for _, e := range harness.All() {
		if !q.ran[e.ID] {
			missing = append(missing, e.ID)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("paper-quick: experiments not run: %s", strings.Join(missing, ", "))
	}
	return nil
}
