package mem

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"argo/internal/chunk"
)

var policies = []Policy{Interleaved, Blocked}

// materialized lists the pages that own backing bytes.
func materialized(s *Space) []int {
	var out []int
	s.pages.Range(func(base int, c []homePage) {
		for i := range c {
			if c[i].data != nil {
				out = append(out, base+i)
			}
		}
	})
	return out
}

// An unwritten page reads as zeros through every read entry, whatever the
// destination held before, and reading allocates nothing.
func TestUnwrittenPageReadsZero(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.String(), func(t *testing.T) {
			s := NewSpace(3, 8*4096, 4096, pol)
			if m := materialized(s); m != nil {
				t.Fatalf("NewSpace allocated pages %v", m)
			}
			for _, n := range []int{4096, 100} {
				dst := bytes.Repeat([]byte{0xff}, n)
				s.ReadPage(5, dst)
				if !bytes.Equal(dst, make([]byte, n)) {
					t.Fatalf("ReadPage into %d bytes: not zero", n)
				}
			}
			dst := bytes.Repeat([]byte{0xff}, 64)
			s.ReadAt(5, 4096-16, dst)
			if !bytes.Equal(dst[:16], make([]byte, 16)) || dst[16] != 0xff {
				t.Fatalf("ReadAt past the page end: %v", dst[:20])
			}
			wb := bytes.Repeat([]byte{0xff}, 4096) // page-sized heap blocks are 8-byte aligned
			s.ReadPageWords(6, wb)
			if !bytes.Equal(wb, make([]byte, 4096)) {
				t.Fatal("ReadPageWords: not zero")
			}
			if m := materialized(s); m != nil {
				t.Fatalf("reads allocated pages %v", m)
			}
			if n := s.MaterializedChunks(); n != 0 {
				t.Fatalf("reads materialized %d page-table chunks", n)
			}
		})
	}
}

// Each write entry allocates exactly the page it touches, and the page
// holds the written bytes on a zero background.
func TestWriteEntriesMaterializeOnePage(t *testing.T) {
	const pg = 3
	data := make([]byte, 4096)
	data[10], data[4000] = 0x5a, 0xa5
	zero := make([]byte, 4096)
	entries := []struct {
		name  string
		write func(s *Space)
	}{
		{"WritePageFull", func(s *Space) { s.WritePageFull(pg, data) }},
		{"WritebackFull", func(s *Space) { s.Writeback(pg, data, zero, func() bool { return true }) }},
		{"WritebackDiff", func(s *Space) { s.Writeback(pg, data, zero, nil) }},
		{"ApplyDiff", func(s *Space) { s.ApplyDiff(pg, data, zero) }},
		{"HomeBytes", func(s *Space) { copy(s.HomeBytes(pg), data) }},
	}
	for _, pol := range policies {
		for _, e := range entries {
			t.Run(fmt.Sprintf("%v/%s", pol, e.name), func(t *testing.T) {
				s := NewSpace(3, 8*4096, 4096, pol)
				e.write(s)
				if m := materialized(s); !reflect.DeepEqual(m, []int{pg}) {
					t.Fatalf("materialized %v, want [%d]", m, pg)
				}
				got := make([]byte, 4096)
				s.ReadPage(pg, got)
				if !bytes.Equal(got, data) {
					t.Fatal("written page does not read back")
				}
			})
		}
	}
}

// Several goroutines writing disjoint bytes of one unwritten page race to
// allocate it; exactly one allocation wins and every byte survives.
func TestConcurrentFirstWrites(t *testing.T) {
	const writers = 8
	for _, pol := range policies {
		t.Run(pol.String(), func(t *testing.T) {
			s := NewSpace(2, 4*4096, 4096, pol)
			zero := make([]byte, 4096)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					data := make([]byte, 4096)
					for i := w; i < len(data); i += writers {
						data[i] = byte(w + 1)
					}
					<-start
					if w%2 == 0 {
						s.ApplyDiff(1, data, zero)
					} else {
						s.Writeback(1, data, zero, nil)
					}
				}(w)
			}
			close(start)
			wg.Wait()
			got := make([]byte, 4096)
			s.ReadPage(1, got)
			for i, b := range got {
				if want := byte(i%writers + 1); b != want {
					t.Fatalf("byte %d = %d, want %d", i, b, want)
				}
			}
			if m := materialized(s); !reflect.DeepEqual(m, []int{1}) {
				t.Fatalf("materialized %v, want [1]", m)
			}
		})
	}
}

// Writers first-touching different pages of one page-table chunk race to
// materialize the chunk while readers of its other pages read zeros; every
// write survives and only the written pages own bytes (run under -race).
func TestConcurrentFirstTouchSameChunk(t *testing.T) {
	const pages = chunk.Size
	s := NewSpace(2, 2*pages*4096, 4096, Interleaved)
	zero := make([]byte, 4096)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < pages/2; w++ {
		wg.Add(2)
		go func(pg int) {
			defer wg.Done()
			data := make([]byte, 4096)
			data[pg] = byte(pg + 1)
			<-start
			s.ApplyDiff(pages+pg, data, zero)
		}(2 * w)
		go func(pg int) {
			defer wg.Done()
			dst := make([]byte, 4096)
			<-start
			s.ReadPage(pages+pg, dst)
			if !bytes.Equal(dst, zero) {
				t.Errorf("unwritten page %d read nonzero", pages+pg)
			}
		}(2*w + 1)
	}
	close(start)
	wg.Wait()
	var want []int
	for pg := 0; pg < pages; pg += 2 {
		want = append(want, pages+pg)
		got := make([]byte, 4096)
		s.ReadPage(pages+pg, got)
		if got[pg] != byte(pg+1) {
			t.Fatalf("page %d lost its write", pages+pg)
		}
	}
	if m := materialized(s); !reflect.DeepEqual(m, want) {
		t.Fatalf("materialized %v, want %v", m, want)
	}
	if n := s.MaterializedChunks(); n != 1 {
		t.Fatalf("%d page-table chunks materialized, want 1", n)
	}
}
