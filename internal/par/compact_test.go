package par

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// refFilterMap is the sequential oracle for the *Into compactions.
func refFilterMap(src []int, f func(int) (int, bool)) []int {
	var out []int
	for _, x := range src {
		if d, ok := f(x); ok {
			out = append(out, d)
		}
	}
	return out
}

func TestFilterMapIntoMatchesSequential(t *testing.T) {
	f := func(x int) (int, bool) { return x * 2, x%3 != 0 }
	for _, p := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100, 1 << 14} {
			src := make([]int, n)
			for i := range src {
				src[i] = rand.Intn(1000)
			}
			want := refFilterMap(src, f)
			got := FilterMapInto(p, nil, src, nil, f)
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d n=%d: FilterMapInto mismatch (%d vs %d elems)", p, n, len(got), len(want))
			}
		}
	}
}

func TestFilterMapIntoReusesDst(t *testing.T) {
	src := make([]int, 4096)
	for i := range src {
		src[i] = i
	}
	f := func(x int) (int, bool) { return x, x%2 == 0 }
	dst := make([]int, 0, len(src))
	pad := PadBlock(nil, Workers(4))
	for round := 0; round < 3; round++ {
		out := FilterMapInto(4, dst, src, pad, f)
		if len(out) != 2048 {
			t.Fatalf("round %d: kept %d, want 2048", round, len(out))
		}
		if &out[:1][0] != &dst[:1][0] {
			t.Fatalf("round %d: output did not reuse dst storage", round)
		}
		dst = out[:0]
	}
}

// TestCompactIntoCallsOncePerElement: FilterMapInto's and PackIndexInto's
// transforms run exactly once per element (per index) at every worker
// count, for lengths around the chunk boundaries and for survivor patterns
// that leave whole chunks empty or full, and a dst shorter than the input
// grows to hold the result.
func TestCompactIntoCallsOncePerElement(t *testing.T) {
	keeps := map[string]func(int) bool{
		"thirds": func(x int) bool { return x%3 != 0 },
		"all":    func(int) bool { return true },
		"none":   func(int) bool { return false },
		"tail":   func(x int) bool { return x >= 700 },
	}
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int{p - 1, p, p + 1, 2*p - 1, 2*p + 1, 1000*p - 1, 1000 * p, 1000*p + 1} {
			src := make([]int, n)
			for i := range src {
				src[i] = i % 1000
			}
			for name, keep := range keeps {
				var calls atomic.Int64
				f := func(x int) (int, bool) {
					calls.Add(1)
					return x + 1, keep(x)
				}
				want := refFilterMap(src, func(x int) (int, bool) { return x + 1, keep(x) })
				got := FilterMapInto(p, make([]int, 0, n/2), src, nil, f)
				if c := calls.Load(); c != int64(n) {
					t.Fatalf("p=%d n=%d %s: f called %d times, want %d", p, n, name, c, n)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("p=%d n=%d %s: FilterMapInto mismatch (%d vs %d elems)", p, n, name, len(got), len(want))
				}

				calls.Store(0)
				idx := PackIndexInto(p, n, make([]uint32, 0, n/2), nil, func(i int) (uint32, bool) {
					calls.Add(1)
					return uint32(i), keep(src[i])
				})
				if c := calls.Load(); c != int64(n) {
					t.Fatalf("p=%d n=%d %s: keep called %d times, want %d", p, n, name, c, n)
				}
				if !slices.Equal(idx, PackIndex(1, n, func(i int) bool { return keep(src[i]) })) {
					t.Fatalf("p=%d n=%d %s: PackIndexInto mismatch", p, n, name)
				}

				calls.Store(0)
				got = PackIndexInto(p, n, make([]int, 0, n/2), nil, func(i int) (int, bool) { return f(src[i]) })
				if c := calls.Load(); c != int64(n) {
					t.Fatalf("p=%d n=%d %s: PackIndexInto called f %d times, want %d", p, n, name, c, n)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("p=%d n=%d %s: PackIndexInto map mismatch (%d vs %d elems)", p, n, name, len(got), len(want))
				}
			}
		}
	}
}

func TestFilterIntoKeepsInputOrder(t *testing.T) {
	src := []int{9, 1, 8, 2, 7, 3, 6, 4, 5}
	got := FilterInto(4, nil, src, nil, func(x int) bool { return x >= 5 })
	want := []int{9, 8, 7, 6, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("FilterInto = %v, want %v", got, want)
	}
}

func TestPackIndexIntoMatchesPackIndex(t *testing.T) {
	keep := func(i int) bool { return i%5 == 0 || i%7 == 0 }
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 10, 1000, 1 << 14} {
			want := PackIndex(p, n, keep)
			got := PackIndexInto(p, n, nil, nil, func(i int) (uint32, bool) { return uint32(i), keep(i) })
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d n=%d: PackIndexInto differs from PackIndex", p, n)
			}
		}
	}
}

func TestSequentialCompactionPathsAllocationFree(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	// The p=1 paths of the *Into helpers append into dst directly; with
	// pre-sized buffers that must be allocation-free — the property the
	// Boruvka contraction loops depend on.
	src := make([]uint32, 4096)
	for i := range src {
		src[i] = uint32(i)
	}
	dst := make([]uint32, 0, len(src))
	pad := PadBlock(nil, 1)
	keep := func(x uint32) bool { return x%2 == 0 }
	if n := testing.AllocsPerRun(20, func() {
		dst = FilterInto(1, dst, src, pad, keep)[:0]
	}); n != 0 {
		t.Fatalf("sequential FilterInto allocated %v times per run", n)
	}
	idx := make([]uint32, 0, len(src))
	keepIdx := func(i int) (uint32, bool) { return uint32(i), i%3 == 0 }
	if n := testing.AllocsPerRun(20, func() {
		idx = PackIndexInto(1, len(src), idx, pad, keepIdx)[:0]
	}); n != 0 {
		t.Fatalf("sequential PackIndexInto allocated %v times per run", n)
	}
}

func TestForCollectIntoSequentialReusesBuf(t *testing.T) {
	body := func(lo, hi int, out []int) []int {
		for i := lo; i < hi; i++ {
			if i%2 == 0 {
				out = append(out, i)
			}
		}
		return out
	}
	buf := make([]int, 0, 600)
	if !raceTestEnabled {
		if n := testing.AllocsPerRun(20, func() {
			buf = ForCollectInto(1, 1000, 64, buf, body)[:0]
		}); n != 0 {
			t.Fatalf("sequential ForCollectInto allocated %v times per run", n)
		}
	}
	got := ForCollectInto(1, 1000, 64, buf, body)
	if len(got) != 500 || got[0] != 0 || got[499] != 998 {
		t.Fatalf("ForCollectInto result wrong: len=%d", len(got))
	}
}

func TestForCollectIntoParallelMatchesSequential(t *testing.T) {
	body := func(lo, hi int, out []uint32) []uint32 {
		for i := lo; i < hi; i++ {
			if i%7 == 0 {
				out = append(out, uint32(i))
			}
		}
		return out
	}
	want := ForCollectInto(1, 1<<14, 128, nil, body)
	got := ForCollectInto(8, 1<<14, 128, make([]uint32, 0, 1<<12), body)
	slices.Sort(got) // parallel chunk order is unspecified
	if !slices.Equal(got, want) {
		t.Fatalf("parallel ForCollectInto differs: %d vs %d elems", len(got), len(want))
	}
}

func TestFillSequentialAndParallel(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, n := range []int{0, 1, 100, 8192, 8193, 1 << 15} {
			s := make([]int32, n)
			Fill(p, s, -7)
			for i, v := range s {
				if v != -7 {
					t.Fatalf("p=%d n=%d: s[%d] = %d", p, n, i, v)
				}
			}
		}
	}
	s := make([]uint64, 4096)
	if !raceTestEnabled {
		if n := testing.AllocsPerRun(20, func() { Fill(1, s, InfKey) }); n != 0 {
			t.Fatalf("sequential Fill allocated %v times per run", n)
		}
	}
}

func TestPadBlockAndChunkBounds(t *testing.T) {
	pad := PadBlock(nil, 4)
	if len(pad) != 4*PadStride {
		t.Fatalf("PadBlock len = %d", len(pad))
	}
	if got := PadBlock(pad, 2); &got[0] != &pad[0] {
		t.Fatal("PadBlock did not reuse sufficient storage")
	}
	// Chunks tile [0, n) exactly.
	for _, n := range []int{1, 7, 8, 100} {
		p := 3
		at := 0
		for w := 0; w < p; w++ {
			lo, hi := chunkBounds(w, p, n)
			if lo != at || hi < lo {
				t.Fatalf("n=%d w=%d: bounds [%d,%d) not contiguous at %d", n, w, lo, hi, at)
			}
			at = hi
		}
		if at != n {
			t.Fatalf("n=%d: chunks cover up to %d", n, at)
		}
	}
}
