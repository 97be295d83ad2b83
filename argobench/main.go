// Command argobench is the end-to-end benchmark of the Argo reproduction.
// It drives one workload through the public argo API for a fixed host-time
// budget, checks every launch against a serial reference computed once per
// seed, and prints each metric named in BENCHMARK.json with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage, from the root of the repository (see run.sh and README.md):
//
//	bash argobench/run.sh --workload lu --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no probe attached.
// --trace 1 spends half the budget on untraced launches and half on launches
// whose calls into each layer are timed from this package, and prints the
// per-layer metrics, the tracing overhead and a Perfetto trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"argo"
	"argo/internal/harness"
	"argo/internal/stats"
)

// commit is stamped by run.sh at build time.
var commit = "unknown"

// outDir holds result files and traces, relative to the working directory.
const outDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("argobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "lu", "workload: lu, cg, pq-hqdl or paper-quick")
	seed := fs.Int64("seed", 1, "workload seed (1 is the default, 2026 the held-out seed)")
	seconds := fs.Float64("seconds", 10, "host seconds to spend measuring")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "argobench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "argobench:", err)
		return 1
	}

	meta := hostMeta(w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "argobench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	l := w.make(*seed)
	budget := time.Duration(*seconds * float64(time.Second))

	var untraced, traced []sample
	if *trace == 0 {
		untraced = collect(l, nil, budget, stdout)
	} else {
		untraced = collect(l, nil, budget/2, stdout)
		tr := newTracer()
		traced = collect(l, tr, budget/2, stdout)
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(stderr, "argobench: perfetto:", err)
		} else if dropped, err := tr.writePerfetto(path); err != nil {
			fmt.Fprintln(stderr, "argobench: perfetto:", err)
		} else {
			fmt.Fprintf(stdout, "perfetto trace of the last traced launch: %s (%d spans past %d per track left out)\n",
				path, dropped, perfettoCap)
		}
	}
	all := append(append([]sample(nil), untraced...), traced...)
	attempted, failed := tally(all)
	coverErr := coverage(all)

	var computed map[string]metric
	var want []specMetric
	if *trace == 0 {
		computed, want = endToEnd(untraced, attempted, failed), spec.EndToEnd
		printTable(stdout, "end-to-end (untraced)", computed, len(untraced))
	} else {
		computed, want = perLayer(untraced, traced), spec.PerLayer
		printLayers(stdout, traced)
		printTable(stdout, "per-layer (traced)", computed, len(traced))
	}
	out, err := selectMetrics(computed, want)
	if err != nil {
		fmt.Fprintln(stderr, "argobench:", err)
		return 1
	}
	for _, s := range all {
		if s.err != nil {
			fmt.Fprintln(stdout, "FAILED:", s.err)
		}
	}
	if coverErr != nil {
		fmt.Fprintln(stdout, "COVERAGE:", coverErr)
	} else {
		fmt.Fprintln(stdout, "coverage: ok")
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && coverErr == nil, attempted, failed, out}

	meta["launches_untraced"] = len(untraced)
	meta["launches_traced"] = len(traced)
	if err := writeResult(w.name, *seed, *trace, meta, final, computed); err != nil {
		fmt.Fprintln(stderr, "argobench: result file:", err)
	}
	mj, _ := json.Marshal(map[string]any{"meta": meta}) // plain map of scalars
	fmt.Fprintln(stdout, string(mj))
	fj, _ := json.Marshal(final) // plain struct of scalars
	fmt.Fprintln(stdout, string(fj))
	return 0
}

// sample is one launch: setup, run, the counters it moved, and its checks.
type sample struct {
	setup, run           time.Duration
	virtual              int64 // ns
	setupAlloc, runAlloc uint64
	gcCycles             uint32
	gcPause              time.Duration
	peakRSS              float64 // MB: the process's VmHWM over the launch
	stats                stats.Snapshot
	hits                 int64
	ops                  int64 // operations of a pq-hqdl launch
	err                  error // failed verification or a panic on the driver goroutine
	cover                error
	layers               *launchLayers // traced launches only
}

// collect runs launches until budget is spent (at least three).
func collect(l launcher, tr *tracer, budget time.Duration, log io.Writer) []sample {
	var out []sample
	start := time.Now()
	for len(out) < 3 || time.Since(start) < budget {
		s := measure(l, tr)
		mode := "untraced"
		if tr != nil {
			mode = "traced"
		}
		status := "ok"
		if s.err != nil {
			status = "FAILED"
		}
		fmt.Fprintf(log, "  %s launch %d: setup %.4fs run %.4fs virtual %.4fms alloc %.1fMB peak %.1fMB %s\n",
			mode, len(out)+1, s.setup.Seconds(), s.run.Seconds(), float64(s.virtual)/1e6,
			float64(s.setupAlloc+s.runAlloc)/1e6, s.peakRSS, status)
		out = append(out, s)
	}
	return out
}

// measure runs one launch: a GC that also returns free memory to the OS,
// so every launch starts from the same heap state and pays its own page
// faults, then the timed setup and run, then the untimed checks. A panic
// on the driver goroutine fails the launch; one in a simulated thread ends
// the process.
func measure(l launcher, tr *tracer) (s sample) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()
	tr.reset()
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, h0 := time.Now(), tr.hostNow()
	c := argo.MustNewCluster(paperConfig())
	h1 := tr.hostNow()
	l.load(c)
	s.setup = time.Since(t0)
	tr.driverSpan(spNewCluster, h0, h1)
	tr.driverSpan(spInit, h1, tr.hostNow())
	runtime.ReadMemStats(&m1)
	r0 := tr.hostNow()
	t1 := time.Now()
	s.virtual = l.run(c, tr)
	s.run = time.Since(t1)
	tr.driverSpan(spRun, r0, tr.hostNow())
	runtime.ReadMemStats(&m2)
	s.peakRSS = peakRSSMB()

	s.setupAlloc = m1.TotalAlloc - m0.TotalAlloc
	s.runAlloc = m2.TotalAlloc - m1.TotalAlloc
	s.gcCycles = m2.NumGC - m1.NumGC
	s.gcPause = time.Duration(m2.PauseTotalNs - m1.PauseTotalNs)
	s.stats, s.hits = c.Stats(), c.Hits()
	if pq, ok := l.(*pqLaunch); ok {
		s.ops = pq.ops
	}
	if tr != nil {
		s.layers = tr.summarize()
	}
	s.err = l.verify()
	s.cover = l.covers(&s)
	return s
}

// tally counts attempted and failed launches.
func tally(ss []sample) (attempted, failed int) {
	for _, s := range ss {
		if s.err != nil {
			failed++
		}
	}
	return len(ss), failed
}

func coverage(ss []sample) error {
	for _, s := range ss {
		if s.cover != nil {
			return s.cover
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of f over the samples.
func median(ss []sample, f func(*sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	v := make([]float64, len(ss))
	for i := range ss {
		v[i] = f(&ss[i])
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

const mb = 1e6

// endToEnd computes the user-visible metrics: medians over the run's
// launches (setup, run, virtual makespan, allocation) and the process's
// peak resident set.
func endToEnd(ss []sample, attempted, failed int) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(ss, func(s *sample) float64 { return s.setup.Seconds() }), "s"},
		"run_s":       {median(ss, func(s *sample) float64 { return s.run.Seconds() }), "s"},
		"virtual_ms":  {median(ss, func(s *sample) float64 { return float64(s.virtual) / 1e6 }), "ms"},
		"alloc_mb":    {median(ss, func(s *sample) float64 { return float64(s.setupAlloc+s.runAlloc) / mb }), "MB"},
		"peak_rss_mb": {median(ss, func(s *sample) float64 { return s.peakRSS }), "MB"},
		"failed":      {float64(failed) / float64(attempted), "fraction"},
	}
}

// perLayer computes the per-layer metrics: span-derived ones from the
// traced launches, counters from Cluster.Stats of the traced launches, and
// host-runtime ones and the tracing overhead from the untraced launches of
// the same run.
func perLayer(uu, tt []sample) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, f func(*sample) float64) { m[name] = metric{median(tt, f), unit} }
	putU := func(name, unit string, f func(*sample) float64) { m[name] = metric{median(uu, f), unit} }
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }

	put("core.new_cluster_s", "s", func(s *sample) float64 { return secs(s.layers.sums[spNewCluster].selfNs) })
	put("core.init_s", "s", func(s *sample) float64 { return secs(s.layers.sums[spInit].selfNs) })
	for _, l := range []struct {
		name string
		k    spanKind
	}{{"core.read_range", spReadRange}, {"core.write_range", spWriteRange}, {"vela.barrier", spBarrier}} {
		k := l.k
		sum := func(s *sample) *layerSum { return &s.layers.sums[k] }
		put(l.name+".calls", "count", func(s *sample) float64 { return float64(sum(s).calls) })
		put(l.name+".self_s", "s", func(s *sample) float64 { return secs(sum(s).selfNs) })
		put(l.name+".virtual_s", "s", func(s *sample) float64 { return secs(sum(s).virtNs) })
	}
	put("core.get.ns_per_access", "ns", func(s *sample) float64 {
		g := s.layers.sums[spGet]
		return ratio(float64(g.selfNs), float64(g.args))
	})
	put("core.hits", "count", func(s *sample) float64 { return float64(s.hits) })
	put("core.hit_ratio", "ratio", func(s *sample) float64 {
		return ratio(float64(s.hits), float64(s.hits+s.stats.ReadMisses+s.stats.WriteMisses))
	})

	for _, c := range []struct {
		name string
		f    func(*stats.Snapshot) int64
	}{
		{"coherence.read_misses", func(s *stats.Snapshot) int64 { return s.ReadMisses }},
		{"coherence.write_misses", func(s *stats.Snapshot) int64 { return s.WriteMisses }},
		{"coherence.cold_fetches", func(s *stats.Snapshot) int64 { return s.ColdFetches }},
		{"coherence.prefetched_pages", func(s *stats.Snapshot) int64 { return s.PrefetchedPages }},
		{"coherence.writebacks", func(s *stats.Snapshot) int64 { return s.Writebacks }},
		{"coherence.writeback_bytes", func(s *stats.Snapshot) int64 { return s.WritebackBytes }},
		{"coherence.self_invalidations", func(s *stats.Snapshot) int64 { return s.SelfInvalidations }},
		{"coherence.si_filtered", func(s *stats.Snapshot) int64 { return s.SIFiltered }},
		{"coherence.si_fences", func(s *stats.Snapshot) int64 { return s.SIFences }},
		{"coherence.sd_fences", func(s *stats.Snapshot) int64 { return s.SDFences }},
		{"coherence.checkpoints", func(s *stats.Snapshot) int64 { return s.Checkpoints }},
		{"directory.dir_ops", func(s *stats.Snapshot) int64 { return s.DirOps }},
		{"directory.dir_notifies", func(s *stats.Snapshot) int64 { return s.DirNotifies }},
		{"fabric.messages", func(s *stats.Snapshot) int64 { return s.Messages }},
		{"fabric.bytes_sent", func(s *stats.Snapshot) int64 { return s.BytesSent }},
		{"fabric.bytes_received", func(s *stats.Snapshot) int64 { return s.BytesReceived }},
		{"locks.delegated_sections", func(s *stats.Snapshot) int64 { return s.DelegatedSections }},
		{"locks.handovers_local", func(s *stats.Snapshot) int64 { return s.LockHandoversLocal }},
		{"locks.handovers_remote", func(s *stats.Snapshot) int64 { return s.LockHandoversRemote }},
	} {
		f, unit := c.f, "count"
		if strings.HasPrefix(c.name, "fabric.bytes") || c.name == "coherence.writeback_bytes" {
			unit = "B"
		}
		put(c.name, unit, func(s *sample) float64 { return float64(f(&s.stats)) })
	}
	put("coherence.si_keep_ratio", "ratio", func(s *sample) float64 {
		return ratio(float64(s.stats.SIFiltered), float64(s.stats.SIFiltered+s.stats.SelfInvalidations))
	})
	put("coherence.bytes_per_writeback", "B", func(s *sample) float64 {
		return ratio(float64(s.stats.WritebackBytes), float64(s.stats.Writebacks))
	})

	put("vela.barrier.arrival_skew_s", "s", func(s *sample) float64 {
		v := make([]float64, len(s.layers.skewNs))
		for i, ns := range s.layers.skewNs {
			v[i] = secs(ns)
		}
		return medianOf(v)
	})
	put("locks.delegate.ns_p50", "ns", func(s *sample) float64 { return s.layers.sums[spDelegate].p50 })
	put("locks.delegate_wait.ns_p50", "ns", func(s *sample) float64 { return s.layers.sums[spDelegateWait].p50 })
	put("locks.delegate_wait.ns_p99", "ns", func(s *sample) float64 { return s.layers.sums[spDelegateWait].p99 })
	put("locks.delegate_wait.virtual_s", "s", func(s *sample) float64 { return secs(s.layers.sums[spDelegateWait].virtNs) })
	put("locks.sections_per_si", "ratio", func(s *sample) float64 {
		return ratio(float64(s.stats.DelegatedSections), float64(s.stats.SIFences))
	})
	put("locks.virtual_ops_per_us", "ops/us", func(s *sample) float64 {
		return ratio(float64(s.ops), float64(s.virtual)/1e3)
	})

	putU("sim.host_ns_per_virtual_us", "ns/us", func(s *sample) float64 {
		return ratio(float64(s.run.Nanoseconds()), float64(s.virtual)/1e3)
	})
	putU("runtime.setup_alloc_mb", "MB", func(s *sample) float64 { return float64(s.setupAlloc) / mb })
	putU("runtime.run_alloc_mb", "MB", func(s *sample) float64 { return float64(s.runAlloc) / mb })
	putU("runtime.gc_cycles", "count", func(s *sample) float64 { return float64(s.gcCycles) })
	putU("runtime.gc_pause_s", "s", func(s *sample) float64 { return s.gcPause.Seconds() })

	for _, e := range harness.All() {
		id := e.ID
		put("harness."+id+"_s", "s", func(s *sample) float64 { return s.layers.expSecs[id] })
	}

	untraced := median(uu, func(s *sample) float64 { return s.run.Seconds() })
	traced := median(tt, func(s *sample) float64 { return s.run.Seconds() })
	m["trace.untraced_run_s"] = metric{untraced, "s"}
	m["trace.traced_run_s"] = metric{traced, "s"}
	m["trace.overhead_s"] = metric{traced - untraced, "s"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS sets the process's VmHWM back to its current RSS (Linux
// clear_refs 5), so each launch reads its own peak. Where that fails, the
// peak read after a launch is the process's peak so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's VmHWM in MB (0 where /proc is unavailable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / mb
		}
	}
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// selectMetrics returns exactly the metrics the spec names, checking that
// each was computed with the unit the spec gives it.
func selectMetrics(computed map[string]metric, want []specMetric) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := computed[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not measured by this workload", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s: unit %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s: value %v", w.Name, m.Value)
		}
		out[w.Name] = m
	}
	return out, nil
}

func printTable(w io.Writer, title string, ms map[string]metric, n int) {
	fmt.Fprintf(w, "%s metrics, medians over %d launches:\n", title, n)
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// printLayers prints the per-layer span table of the traced launches:
// calls, host self time and virtual time per launch (medians), and p50/p99
// of single calls where at least ten samples lie beyond the percentile.
func printLayers(w io.Writer, tt []sample) {
	fmt.Fprintf(w, "per-layer spans, medians over %d traced launches:\n", len(tt))
	fmt.Fprintf(w, "  %-22s %12s %12s %12s %12s %12s\n", "layer", "calls", "self_s", "virtual_s", "p50_ns", "p99_ns")
	for k := spanKind(0); k < nSpanKinds; k++ {
		if k == spExperiment {
			continue
		}
		calls := median(tt, func(s *sample) float64 { return float64(s.layers.sums[k].calls) })
		if calls == 0 {
			continue
		}
		pct := func(has func(*layerSum) bool, v func(*layerSum) float64) string {
			var vals []float64
			for i := range tt {
				if ls := &tt[i].layers.sums[k]; has(ls) {
					vals = append(vals, v(ls))
				}
			}
			if len(vals) == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f", medianOf(vals))
		}
		fmt.Fprintf(w, "  %-22s %12.0f %12.6f %12.6f %12s %12s\n", spanNames[k], calls,
			median(tt, func(s *sample) float64 { return float64(s.layers.sums[k].selfNs) / 1e9 }),
			median(tt, func(s *sample) float64 { return float64(s.layers.sums[k].virtNs) / 1e9 }),
			pct(func(l *layerSum) bool { return l.hasP50 }, func(l *layerSum) float64 { return l.p50 }),
			pct(func(l *layerSum) bool { return l.hasP99 }, func(l *layerSum) float64 { return l.p99 }))
	}
}

// hostMeta records where and what was measured.
func hostMeta(name string, seed int64, seconds float64, traced int) map[string]any {
	return map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResult keeps the run's metadata, verdict and every computed metric
// in .bench_build/results.
func writeResult(name string, seed int64, traced int, meta map[string]any, final any, computed map[string]metric) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "result": final, "all_metrics": computed}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced)), b, 0o644)
}
