package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"argo"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded by the benchmark around one call into a layer's public function;
// none nests inside another on the same thread, so a span's host self time
// is its duration.
type spanKind uint8

const (
	spNewCluster   spanKind = iota // argo.NewCluster (driver)
	spInit                         // Alloc* and Init* of the inputs (driver)
	spRun                          // one Cluster.Run (driver)
	spExperiment                   // one harness experiment (driver)
	spReadRange                    // Thread.ReadF64s / ReadI64s
	spWriteRange                   // Thread.WriteF64s / WriteI64s
	spGet                          // one matvec row of Thread.GetF64 calls
	spBarrier                      // Thread.Barrier / InitDone
	spDelegate                     // HQDL.Delegate
	spDelegateWait                 // HQDL.DelegateWait
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"core.new_cluster", "core.init", "core.run", "harness.experiment",
	"core.read_range", "core.write_range", "core.get", "vela.barrier",
	"locks.delegate", "locks.delegate_wait",
}

// maxRanks bounds the simulated threads of one launch (4 nodes × 16 cores).
const maxRanks = 64

// span is one timed call. Host times are ns since the tracer's base; the
// virtual times are the calling thread's clock (t.P.Now()), zero on the
// driver track. arg is the access count of a core.get span, the episode of
// a vela.barrier span, the experiment index of a harness span, else 1.
type span struct {
	kind         spanKind
	arg          int32
	start, end   int64
	vstart, vend int64
}

// tracer keeps the spans of the current launch in memory, one slice per
// simulated thread plus one for the driver goroutine, so recording takes
// no lock. A nil *tracer records nothing: untraced runs pass nil.
type tracer struct {
	base    time.Time
	threads [maxRanks][]span
	episode [maxRanks]int32
	driver  []span
	exps    []string // experiment ids, indexed by a harness span's arg
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// reset drops the previous launch's spans, keeping their storage.
func (tr *tracer) reset() {
	if tr == nil {
		return
	}
	for i := range tr.threads {
		tr.threads[i] = tr.threads[i][:0]
		tr.episode[i] = 0
	}
	tr.driver = tr.driver[:0]
}

func (tr *tracer) hostNow() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.base))
}

// mark is the start of an open thread span.
type mark struct{ host, virt int64 }

func (tr *tracer) begin(th *argo.Thread) mark {
	if tr == nil {
		return mark{}
	}
	return mark{int64(time.Since(tr.base)), th.P.Now()}
}

func (tr *tracer) end(th *argo.Thread, m mark, k spanKind, arg int32) {
	if tr == nil {
		return
	}
	tr.threads[th.Rank] = append(tr.threads[th.Rank], span{
		kind: k, arg: arg, start: m.host, end: int64(time.Since(tr.base)),
		vstart: m.virt, vend: th.P.Now(),
	})
}

// barrier is th.Barrier, recorded with its episode number.
func (tr *tracer) barrier(th *argo.Thread) {
	if tr == nil {
		th.Barrier()
		return
	}
	m := tr.begin(th)
	th.Barrier()
	tr.endEpisode(th, m)
}

// initDone is th.InitDone (a barrier that also resets classification).
func (tr *tracer) initDone(th *argo.Thread) {
	if tr == nil {
		th.InitDone()
		return
	}
	m := tr.begin(th)
	th.InitDone()
	tr.endEpisode(th, m)
}

func (tr *tracer) endEpisode(th *argo.Thread, m mark) {
	tr.end(th, m, spBarrier, tr.episode[th.Rank])
	tr.episode[th.Rank]++
}

func (tr *tracer) driverSpan(k spanKind, start, end int64) {
	if tr == nil {
		return
	}
	tr.driver = append(tr.driver, span{kind: k, arg: 1, start: start, end: end})
}

func (tr *tracer) experimentSpan(id string, start, end int64) {
	if tr == nil {
		return
	}
	idx := -1
	for i, e := range tr.exps {
		if e == id {
			idx = i
		}
	}
	if idx < 0 {
		idx = len(tr.exps)
		tr.exps = append(tr.exps, id)
	}
	tr.driver = append(tr.driver, span{kind: spExperiment, arg: int32(idx), start: start, end: end})
}

// layerSum is one layer's totals over one launch.
type layerSum struct {
	calls    int64
	selfNs   int64
	virtNs   int64
	args     int64   // summed span args (accesses for core.get)
	p50, p99 float64 // ns, valid when hasP50 / hasP99
	hasP50   bool
	hasP99   bool
}

// launchLayers summarizes the spans of one traced launch.
type launchLayers struct {
	sums    [nSpanKinds]layerSum
	skewNs  []int64 // barrier arrival skew per episode
	expSecs map[string]float64
}

func (tr *tracer) summarize() *launchLayers {
	ll := &launchLayers{expSecs: map[string]float64{}}
	durs := make([][]int64, nSpanKinds)
	add := func(s span) {
		d := s.end - s.start
		sum := &ll.sums[s.kind]
		sum.calls++
		sum.selfNs += d
		sum.virtNs += s.vend - s.vstart
		sum.args += int64(s.arg)
		durs[s.kind] = append(durs[s.kind], d)
	}
	type arrivals struct{ first, last int64 }
	episodes := map[int32]*arrivals{}
	for r := range tr.threads {
		for _, s := range tr.threads[r] {
			add(s)
			if s.kind == spBarrier {
				a := episodes[s.arg]
				if a == nil {
					episodes[s.arg] = &arrivals{s.start, s.start}
				} else {
					a.first = min(a.first, s.start)
					a.last = max(a.last, s.start)
				}
			}
		}
	}
	for _, s := range tr.driver {
		if s.kind == spExperiment {
			ll.expSecs[tr.exps[s.arg]] = float64(s.end-s.start) / 1e9
			continue
		}
		add(s)
	}
	for _, a := range episodes {
		ll.skewNs = append(ll.skewNs, a.last-a.first)
	}
	for k, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		sum := &ll.sums[k]
		// A percentile is reported only when at least ten samples lie
		// beyond it.
		if len(ds) >= 20 {
			sum.p50, sum.hasP50 = float64(ds[len(ds)/2]), true
		}
		if len(ds) >= 1000 {
			sum.p99, sum.hasP99 = float64(ds[len(ds)*99/100]), true
		}
	}
	return ll
}

// perfettoCap bounds the spans exported per track so a trace file stays
// loadable; the per-layer metrics use every span.
const perfettoCap = 4000

// writePerfetto writes the current launch's spans as a Chrome trace-event
// JSON file (load it in ui.perfetto.dev or chrome://tracing). The driver
// goroutine is tid 0; simulated thread r is tid r+1.
func (tr *tracer) writePerfetto(path string) (dropped int, err error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	emit := func(tid int, spans []span) {
		if len(spans) > perfettoCap {
			dropped += len(spans) - perfettoCap
			spans = spans[:perfettoCap]
		}
		for _, s := range spans {
			name := spanNames[s.kind]
			args := map[string]any{}
			switch {
			case s.kind == spExperiment:
				name = "harness." + tr.exps[s.arg]
			case tid > 0:
				args["virtual_start_ns"] = s.vstart
				args["virtual_ns"] = s.vend - s.vstart
				args["arg"] = s.arg
			}
			evs = append(evs, event{
				Name: name, Cat: "argobench", Ph: "X", Pid: 1, Tid: tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
			})
		}
	}
	emit(0, tr.driver)
	for r := range tr.threads {
		emit(r+1, tr.threads[r])
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("close %s: %w", path, err)
	}
	return dropped, nil
}
