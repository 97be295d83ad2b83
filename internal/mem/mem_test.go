package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestHomeInterleaved(t *testing.T) {
	s := NewSpace(4, 16*4096, 4096, Interleaved)
	if s.NPages != 16 {
		t.Fatalf("NPages = %d, want 16", s.NPages)
	}
	for p := 0; p < 16; p++ {
		if got := s.HomeOf(p); got != p%4 {
			t.Fatalf("page %d home = %d, want %d", p, got, p%4)
		}
	}
}

func TestHomeBlocked(t *testing.T) {
	s := NewSpace(4, 16*4096, 4096, Blocked)
	for p := 0; p < 16; p++ {
		if got, want := s.HomeOf(p), p/4; got != want {
			t.Fatalf("page %d home = %d, want %d", p, got, want)
		}
	}
	// Non-divisible page counts must still map every page to a valid node.
	s = NewSpace(3, 10*4096, 4096, Blocked)
	for p := 0; p < s.NPages; p++ {
		if h := s.HomeOf(p); h < 0 || h >= 3 {
			t.Fatalf("page %d home = %d out of range", p, h)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(2, 1<<20, 4096, Interleaved)
	a := s.Alloc(10, 0)
	if a%8 != 0 {
		t.Fatalf("default alignment broken: %d", a)
	}
	b := s.Alloc(100, 64)
	if b%64 != 0 {
		t.Fatalf("alloc not 64-aligned: %d", b)
	}
	c := s.AllocPageAligned(5000)
	if c%4096 != 0 {
		t.Fatalf("alloc not page-aligned: %d", c)
	}
	if b < a+10 || c < b+100 {
		t.Fatalf("allocations overlap: %d %d %d", a, b, c)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	s.Alloc(8192, 8)
}

// Property: concurrent allocations never overlap and never exceed capacity.
func TestAllocConcurrentNonOverlap(t *testing.T) {
	s := NewSpace(2, 1<<20, 4096, Interleaved)
	const workers, each = 8, 50
	var mu sync.Mutex
	type span struct{ lo, hi Addr }
	var spans []span
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				n := int64(rng.Intn(200) + 1)
				a := s.Alloc(n, 8)
				mu.Lock()
				spans = append(spans, span{a, a + n})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("allocations overlap: [%d,%d) and [%d,%d)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestReadWritePage(t *testing.T) {
	s := NewSpace(2, 8*4096, 4096, Interleaved)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	s.WritePageFull(3, src)
	dst := make([]byte, 4096)
	s.ReadPage(3, dst)
	if !bytes.Equal(src, dst) {
		t.Fatal("page round trip corrupted data")
	}
}

func TestApplyDiffOnlyChangedBytes(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	home := s.HomeBytes(0)
	for i := range home {
		home[i] = 0xAA
	}
	twin := make([]byte, 4096)
	data := make([]byte, 4096)
	for i := range twin {
		twin[i] = 0x11
		data[i] = 0x11
	}
	// Node writes bytes 100..109 and 200.
	for i := 100; i < 110; i++ {
		data[i] = 0x22
	}
	data[200] = 0x33
	tx := s.ApplyDiff(0, data, twin)
	wantTx := (10 + 8) + (1 + 8)
	if tx != wantTx {
		t.Fatalf("diff tx = %d, want %d", tx, wantTx)
	}
	for i := range home {
		switch {
		case i >= 100 && i < 110:
			if home[i] != 0x22 {
				t.Fatalf("byte %d = %#x, want 0x22", i, home[i])
			}
		case i == 200:
			if home[i] != 0x33 {
				t.Fatalf("byte 200 = %#x, want 0x33", home[i])
			}
		default:
			if home[i] != 0xAA {
				t.Fatalf("untouched byte %d clobbered to %#x", i, home[i])
			}
		}
	}
}

func TestWritebackPreferFull(t *testing.T) {
	s := NewSpace(1, 4096, 4096, Interleaved)
	data := bytes.Repeat([]byte{7}, 4096)
	twin := bytes.Repeat([]byte{7}, 4096)
	data[5] = 9
	tx, full := s.Writeback(0, data, twin, func() bool { return true })
	if !full || tx != 4096 {
		t.Fatalf("preferFull writeback: full=%v tx=%d", full, tx)
	}
	if s.HomeBytes(0)[5] != 9 || s.HomeBytes(0)[6] != 7 {
		t.Fatal("full writeback did not copy page")
	}
	tx, full = s.Writeback(0, data, twin, nil)
	if full {
		t.Fatal("nil preferFull must diff")
	}
	if tx != 1+8 {
		t.Fatalf("diff tx = %d, want 9", tx)
	}
}

// Property: two writers with disjoint dirty bytes merge cleanly through
// diffs, in either order (false sharing on one page).
func TestDiffMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(2, 4096, 64, Interleaved)
		base := make([]byte, 64)
		rng.Read(base)
		s.WritePageFull(0, base)

		dataA := append([]byte(nil), base...)
		dataB := append([]byte(nil), base...)
		want := append([]byte(nil), base...)
		// Disjoint index sets: A writes evens, B writes odds (random subset).
		for i := 0; i < 64; i += 2 {
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1) // ensure change
				if v == base[i] {
					v++
				}
				dataA[i], want[i] = v, v
			}
		}
		for i := 1; i < 64; i += 2 {
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1)
				if v == base[i] {
					v++
				}
				dataB[i], want[i] = v, v
			}
		}
		if seed%2 == 0 {
			s.ApplyDiff(0, dataA, base)
			s.ApplyDiff(0, dataB, base)
		} else {
			s.ApplyDiff(0, dataB, base)
			s.ApplyDiff(0, dataA, base)
		}
		return bytes.Equal(s.HomeBytes(0), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffSizeMatchesApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(1, 4096, 256, Interleaved)
		twin := make([]byte, 256)
		rng.Read(twin)
		data := append([]byte(nil), twin...)
		for k := 0; k < rng.Intn(40); k++ {
			data[rng.Intn(256)] ^= byte(rng.Intn(255) + 1)
		}
		return DiffSize(data, twin) == s.ApplyDiff(0, data, twin)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refDiffRuns is the scalar byte-at-a-time reference for the word-wise
// run-scan: it returns the diff's wire size and applies changed runs to home
// (when home is non-nil) exactly as the pre-vectorization loop did.
func refDiffRuns(home, data, twin []byte) int {
	tx := 0
	i := 0
	n := len(data)
	for i < n {
		if data[i] == twin[i] {
			i++
			continue
		}
		j := i
		for j < n && data[j] != twin[j] {
			j++
		}
		if home != nil {
			copy(home[i:j], data[i:j])
		}
		tx += (j - i) + 8
		i = j
	}
	return tx
}

// Directed cases the word-wise scan must get exactly right: empty diffs,
// full-page diffs, runs whose boundaries straddle 8-byte word edges, at
// lengths that are not multiples of the word size, and LU-like pages of
// float64s whose updates change only low mantissa bytes (several short runs
// per word, runs carried across word edges).
func TestDiffWordWiseDirected(t *testing.T) {
	type run struct{ lo, hi int }
	cases := []struct {
		name string
		n    int
		runs []run
		f64  bool // twin holds float64s; data applies small relative updates
	}{
		{"empty", 4096, nil, false},
		{"full-page", 4096, []run{{0, 4096}}, false},
		{"single-byte-at-0", 64, []run{{0, 1}}, false},
		{"single-byte-at-end", 64, []run{{63, 64}}, false},
		{"run-ends-at-word-edge", 64, []run{{3, 8}}, false},
		{"run-starts-at-word-edge", 64, []run{{8, 13}}, false},
		{"run-straddles-word-edge", 64, []run{{6, 10}}, false},
		{"adjacent-runs-one-gap", 64, []run{{4, 7}, {8, 12}}, false},
		{"whole-word-run", 64, []run{{16, 24}}, false},
		{"tail-shorter-than-word", 13, []run{{9, 13}}, false},
		{"tiny-page", 5, []run{{1, 4}}, false},
		{"one-byte-page-diff", 1, []run{{0, 1}}, false},
		{"one-byte-page-equal", 1, nil, false},
		{"zero-length", 0, nil, false},
		{"lu-mixed-f64", 4096, nil, true},
		{"lu-mixed-f64-tail", 4096 - 3, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := make([]byte, tc.n)
			for i := range twin {
				twin[i] = byte(i * 7)
			}
			data := append([]byte(nil), twin...)
			for _, r := range tc.runs {
				for i := r.lo; i < r.hi; i++ {
					data[i] ^= 0xFF
				}
			}
			if tc.f64 {
				// a[k] -= l*u: every third word stays, the others move by a
				// relative 1e-9..1e-12, leaving sign, exponent and high
				// mantissa bytes equal.
				for k := 0; k+8 <= tc.n; k += 8 {
					v := 1.5 + float64(k)/97
					binary.LittleEndian.PutUint64(twin[k:], math.Float64bits(v))
					if k/8%3 != 0 {
						v -= v * math.Pow(10, -9-float64(k/8%4))
					}
					binary.LittleEndian.PutUint64(data[k:], math.Float64bits(v))
				}
			}
			want := refDiffRuns(nil, data, twin)
			if got := DiffSize(data, twin); got != want {
				t.Fatalf("DiffSize = %d, want %d", got, want)
			}
			homeA := make([]byte, tc.n)
			homeB := make([]byte, tc.n)
			for i := range homeA {
				homeA[i] = 0xA5
				homeB[i] = 0xA5
			}
			refDiffRuns(homeA, data, twin)
			if got := diffScan(homeB, data, twin); got != want {
				t.Fatalf("diffScan tx = %d, want %d", got, want)
			}
			if !bytes.Equal(homeA, homeB) {
				t.Fatalf("word-wise apply diverged from byte-wise reference")
			}
		})
	}
}

// Property: on random page/twin pairs of random (word-unaligned) lengths the
// word-wise DiffSize and ApplyDiff agree with the byte-wise reference — same
// wire size, same bytes written, same bytes left untouched.
func TestDiffWordWiseMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) // includes 0 and sub-word lengths
		twin := make([]byte, n)
		rng.Read(twin)
		data := append([]byte(nil), twin...)
		switch rng.Intn(4) {
		case 0: // leave identical
		case 1: // change everything
			for i := range data {
				data[i] ^= 0xFF
			}
		default: // sprinkle random runs
			for k := 0; k < rng.Intn(10); k++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(17)
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					data[i] ^= byte(rng.Intn(255) + 1)
				}
			}
		}
		homeRef := make([]byte, n)
		homeGot := make([]byte, n)
		rng.Read(homeRef)
		copy(homeGot, homeRef)
		want := refDiffRuns(homeRef, data, twin)
		if DiffSize(data, twin) != want {
			return false
		}
		if diffScan(homeGot, data, twin) != want {
			return false
		}
		return bytes.Equal(homeRef, homeGot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if Interleaved.String() != "interleaved" || Blocked.String() != "blocked" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() != "Policy(42)" {
		t.Fatal("unknown policy name wrong")
	}
}
