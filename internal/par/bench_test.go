package par

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the runtime primitives every algorithm leans on.

func BenchmarkForStatic(b *testing.B) {
	const n = 1 << 20
	data := make([]int64, n)
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		For(0, n, 1<<14, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

func BenchmarkWriteMinUncontended(b *testing.B) {
	cells := make([]uint64, 1<<16)
	FillKeys(1, cells, InfKey)
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = rng.Uint64() >> 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			WriteMin(&cells[j], vals[j])
		}
	}
}

func BenchmarkWriteMinContended(b *testing.B) {
	// All workers hammer 64 cells — the worst case for the CAS loop.
	cells := make([]uint64, 64)
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(2))
		i := 0
		for pb.Next() {
			WriteMin(&cells[i&63], rng.Uint64())
			i++
		}
	})
}

func BenchmarkExclusiveScan(b *testing.B) {
	const n = 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i & 7)
	}
	work := make([]int64, n)
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		copy(work, src)
		ExclusiveScan(0, work)
	}
}

func BenchmarkSortUint64(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(3))
	src := make([]uint64, n)
	for i := range src {
		src[i] = rng.Uint64()
	}
	work := make([]uint64, n)
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		copy(work, src)
		SortUint64(0, work)
	}
}
