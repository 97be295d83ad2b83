package main

import (
	"testing"
)

// small launchers of every workload kind, so the checks run in seconds.
func smallLaunchers(seed int64) map[string]launcher {
	return map[string]launcher{
		"lu": newLUWith(luParams{n: 64, block: 16, tpn: 2}, seed),
		"cg": newCGWith(cgParams{n: 2048, perRow: 8, iters: 2, tpn: 2}, seed),
		"pq": newPQWith(pqParams{tpn: 3, ops: 40, workUnits: 2, preload: 16}, seed),
	}
}

// corrupt damages the serial reference of a launcher, never its inputs.
func corrupt(t *testing.T, l launcher) {
	switch l := l.(type) {
	case *luLaunch:
		l.ref[7] += 1
	case *cgLaunch:
		l.ref[3] *= 1.01
	case *pqLaunch:
		for k := range l.want {
			l.want[k]++
			return
		}
	case *quickLaunch:
		l.canary.ref[0] += 1
	default:
		t.Fatalf("no corruption for %T", l)
	}
}

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	for name, l := range smallLaunchers(3) {
		t.Run(name, func(t *testing.T) {
			clean := measure(l, nil)
			if clean.err != nil {
				t.Fatalf("launch against the true reference failed: %v", clean.err)
			}
			if clean.cover != nil {
				t.Fatalf("coverage: %v", clean.cover)
			}
			corrupt(t, l)
			bad := measure(l, nil)
			attempted, failed := tally([]sample{clean, bad})
			if attempted != 2 || failed != 1 {
				t.Fatalf("attempted %d failed %d, want 2 and 1 (err %v)", attempted, failed, bad.err)
			}
		})
	}
}

func TestCorruptedCanaryFailsPaperQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole harness suite")
	}
	l := newPaperQuick(3)
	corrupt(t, l)
	if s := measure(l, nil); s.err == nil {
		t.Fatal("paper-quick passed against a corrupted canary reference")
	}
}

// TestMetricsMatchSpec checks that untraced and traced launches produce
// every metric BENCHMARK.json names, with its unit, and that tracing
// records spans at the layers each launch crosses.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range smallLaunchers(5) {
		t.Run(name, func(t *testing.T) {
			plain := []sample{measure(l, nil)}
			tr := newTracer()
			traced := []sample{measure(l, tr)}
			if _, err := selectMetrics(endToEnd(plain, 1, 0), spec.EndToEnd); err != nil {
				t.Fatal(err)
			}
			if _, err := selectMetrics(perLayer(plain, traced), spec.PerLayer); err != nil {
				t.Fatal(err)
			}
			sums := traced[0].layers.sums
			for _, k := range []spanKind{spNewCluster, spInit, spBarrier, spReadRange, spWriteRange} {
				if sums[k].calls == 0 {
					t.Errorf("no %s spans", spanNames[k])
				}
			}
		})
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := newCGWith(cgDefault, 9), newCGWith(cgDefault, 9)
	if len(a.m.val) != len(b.m.val) || a.m.val[100] != b.m.val[100] || a.rhs[7] != b.rhs[7] {
		t.Fatal("cg inputs differ for one seed")
	}
	if c := newCGWith(cgDefault, 10); c.rhs[7] == a.rhs[7] {
		t.Fatal("cg inputs equal for two seeds")
	}
}
