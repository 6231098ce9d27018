package par

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-3) < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", Workers(-3))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

// TestWorkersFor pins the auto rule at GOMAXPROCS = 4, so the clamp is
// reached: explicit counts pass through for any input size, and auto gives
// one worker per parallelShare elements, at least one and at most
// GOMAXPROCS.
func TestWorkersFor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const s = parallelShare
	works := []int{0, 1, s - 1, s, 2*s - 1, 2 * s, 3 * s, 4 * s, 4*s + 1, 100 * s}
	for _, p := range []int{1, 2, 3, 7, 64} {
		for _, work := range works {
			if got := WorkersFor(p, work); got != p {
				t.Errorf("WorkersFor(%d, %d) = %d, want %d unchanged", p, work, got, p)
			}
		}
	}
	for _, tc := range []struct{ work, want int }{
		{0, 1}, {1, 1}, {s - 1, 1}, {s, 1}, {2*s - 1, 1}, {2 * s, 2},
		{3*s - 1, 2}, {3 * s, 3}, {4 * s, 4}, {4*s + 1, 4}, {100 * s, 4},
	} {
		for _, p := range []int{0, -1} {
			if got := WorkersFor(p, tc.work); got != tc.want {
				t.Errorf("WorkersFor(%d, %d) = %d, want %d", p, tc.work, got, tc.want)
			}
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 5, 1000, 10000} {
			hits := make([]int32, n)
			For(p, n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForEach(t *testing.T) {
	const n = 4096
	var sum atomic.Int64
	ForEach(4, n, 16, func(i int) { sum.Add(int64(i)) })
	want := int64(n*(n-1)) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, 0, func(lo, hi int) { called = true })
	For(4, -5, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestDoRunsAllThunks(t *testing.T) {
	var count atomic.Int32
	thunks := make([]func(), 17)
	for i := range thunks {
		thunks[i] = func() { count.Add(1) }
	}
	Do(4, thunks...)
	if count.Load() != 17 {
		t.Fatalf("ran %d thunks, want 17", count.Load())
	}
}

func TestPackKeyOrderMatchesWeightOrder(t *testing.T) {
	f := func(a, b float32, ida, idb uint32) bool {
		a, b = float32(math.Abs(float64(a))), float32(math.Abs(float64(b)))
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		ka, kb := PackKey(a, ida), PackKey(b, idb)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return (ka < kb) == (ida < idb) && (ka == kb) == (ida == idb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyRoundTrip(t *testing.T) {
	f := func(w float32, id uint32) bool {
		w = float32(math.Abs(float64(w)))
		if math.IsNaN(float64(w)) {
			return true
		}
		gw, gid := UnpackKey(PackKey(w, id))
		return gw == w && gid == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAccessors(t *testing.T) {
	k := PackKey(3.5, 42)
	if KeyWeight(k) != 3.5 || KeyID(k) != 42 {
		t.Fatalf("accessors: got (%v, %v), want (3.5, 42)", KeyWeight(k), KeyID(k))
	}
	if k >= InfKey {
		t.Fatal("real key must be below InfKey")
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	cell := InfKey
	const n = 10000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = PackKey(rand.Float32()*100, uint32(i))
	}
	min := slices.Min(vals)
	ForEach(8, n, 8, func(i int) { WriteMin(&cell, vals[i]) })
	if cell != min {
		t.Fatalf("WriteMin result %d, want %d", cell, min)
	}
}

func TestWriteMinReturnsWhetherImproved(t *testing.T) {
	cell := PackKey(5, 0)
	if WriteMin(&cell, PackKey(7, 0)) {
		t.Fatal("WriteMin claimed improvement with larger value")
	}
	if !WriteMin(&cell, PackKey(3, 0)) {
		t.Fatal("WriteMin denied improvement with smaller value")
	}
	if w, _ := UnpackKey(cell); w != 3 {
		t.Fatalf("cell weight %v, want 3", w)
	}
}

func TestWriteMaxConcurrent(t *testing.T) {
	var cell uint64
	const n = 5000
	ForEach(8, n, 8, func(i int) { WriteMax(&cell, uint64(i)) })
	if cell != n-1 {
		t.Fatalf("WriteMax result %d, want %d", cell, n-1)
	}
}

func TestWriteMinU32(t *testing.T) {
	cell := uint32(math.MaxUint32)
	ForEach(8, 5000, 8, func(i int) { WriteMinU32(&cell, uint32(i+1)) })
	if cell != 1 {
		t.Fatalf("WriteMinU32 result %d, want 1", cell)
	}
}

func TestFillKeys(t *testing.T) {
	s := make([]uint64, 100000)
	FillKeys(4, s, InfKey)
	for i, v := range s {
		if v != InfKey {
			t.Fatalf("s[%d] = %d, want InfKey", i, v)
		}
	}
}

func TestExclusiveScanMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 15, 1<<16 + 7} {
		s := make([]int64, n)
		want := make([]int64, n)
		var sum int64
		for i := range s {
			s[i] = int64(rand.Intn(10))
			want[i] = sum
			sum += s[i]
		}
		got := ExclusiveScan(4, s)
		if got != sum {
			t.Fatalf("n=%d: total %d, want %d", n, got, sum)
		}
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: scan mismatch", n)
		}
	}
}

func TestCountingScan(t *testing.T) {
	offsets := CountingScan(4, 10, func(i int) int64 { return int64(i) })
	if len(offsets) != 11 {
		t.Fatalf("len = %d, want 11", len(offsets))
	}
	want := int64(0)
	for i := 0; i <= 10; i++ {
		if offsets[i] != want {
			t.Fatalf("offsets[%d] = %d, want %d", i, offsets[i], want)
		}
		want += int64(i)
	}
}

func TestPack(t *testing.T) {
	n := 1 << 15
	src := make([]int, n)
	keep := make([]bool, n)
	var want []int
	for i := range src {
		src[i] = i
		keep[i] = i%3 == 0
		if keep[i] {
			want = append(want, i)
		}
	}
	got := Pack(4, src, keep)
	if !slices.Equal(got, want) {
		t.Fatalf("Pack mismatch: got %d elems, want %d", len(got), len(want))
	}
}

func TestPackIndex(t *testing.T) {
	got := PackIndex(4, 10, func(i int) bool { return i%2 == 1 })
	want := []uint32{1, 3, 5, 7, 9}
	if !slices.Equal(got, want) {
		t.Fatalf("PackIndex = %v, want %v", got, want)
	}
}

func TestSortUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 16} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rand.Uint64()
		}
		want := slices.Clone(s)
		slices.Sort(want)
		SortUint64(4, s)
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: parallel sort differs from sequential", n)
		}
	}
}

func TestSortFunc(t *testing.T) {
	n := 1 << 16
	s := make([]int32, n)
	for i := range s {
		s[i] = rand.Int31n(1000)
	}
	want := slices.Clone(s)
	slices.Sort(want)
	SortFunc(4, s, func(a, b int32) bool { return a < b })
	if !slices.Equal(s, want) {
		t.Fatal("SortFunc differs from sequential sort")
	}
}

func TestSortUint64Property(t *testing.T) {
	f := func(s []uint64) bool {
		got := slices.Clone(s)
		SortUint64(3, got)
		want := slices.Clone(s)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumInt64(t *testing.T) {
	n := 1 << 15
	got := SumInt64(4, n, func(i int) int64 { return int64(i) })
	if want := int64(n) * int64(n-1) / 2; got != want {
		t.Fatalf("SumInt64 = %d, want %d", got, want)
	}
}

func TestMaxInt64(t *testing.T) {
	got := MaxInt64(4, 1<<15, math.MinInt64, func(i int) int64 { return int64((i * 7919) % 100003) })
	var want int64
	for i := 0; i < 1<<15; i++ {
		if v := int64((i * 7919) % 100003); v > want {
			want = v
		}
	}
	if got != want {
		t.Fatalf("MaxInt64 = %d, want %d", got, want)
	}
}

func TestCountTrueAndAny(t *testing.T) {
	n := 10000
	if got := CountTrue(4, n, func(i int) bool { return i%10 == 0 }); got != 1000 {
		t.Fatalf("CountTrue = %d, want 1000", got)
	}
	if !Any(4, n, func(i int) bool { return i == n-1 }) {
		t.Fatal("Any missed the last index")
	}
	if Any(4, n, func(i int) bool { return false }) {
		t.Fatal("Any found a nonexistent index")
	}
	if Any(4, 0, func(i int) bool { return true }) {
		t.Fatal("Any on empty range")
	}
}

func TestReduceInt64Min(t *testing.T) {
	got := ReduceInt64(4, 1000, math.MaxInt64,
		func(i int) int64 { return int64(1000 - i) },
		func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		})
	if got != 1 {
		t.Fatalf("min reduce = %d, want 1", got)
	}
}

func TestForCollect(t *testing.T) {
	got := ForCollect(4, 10000, 64, func(lo, hi int, out []int) []int {
		for i := lo; i < hi; i++ {
			if i%7 == 0 {
				out = append(out, i)
			}
		}
		return out
	})
	slices.Sort(got)
	var want []int
	for i := 0; i < 10000; i += 7 {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ForCollect: got %d elems, want %d", len(got), len(want))
	}
	if r := ForCollect(4, 0, 0, func(lo, hi int, out []int) []int { return append(out, 1) }); r != nil {
		t.Fatal("ForCollect on empty range returned elements")
	}
}
