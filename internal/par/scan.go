package par

// Prefix sums (scans). Parallel Boruvka's contraction step and the CSR
// builders need exclusive prefix sums over per-vertex counts; on large inputs
// these are computed with the standard two-pass blocked algorithm.

// ExclusiveScan replaces s with its exclusive prefix sum and returns the
// total. s[i] becomes sum(s[0:i]); the former grand total is the return
// value. Runs on p workers using a two-pass blocked scan when profitable.
func ExclusiveScan(p int, s []int64) int64 {
	n := len(s)
	p = Workers(p)
	const blockMin = 1 << 14
	if p == 1 || n < 2*blockMin {
		var sum int64
		for i := range s {
			v := s[i]
			s[i] = sum
			sum += v
		}
		return sum
	}
	nb := p * 4
	if max := n / blockMin; nb > max {
		nb = max
	}
	bsz := (n + nb - 1) / nb
	sums := make([]int64, nb)
	// Pass 1: per-block totals.
	ForEach(p, nb, 1, func(b int) {
		lo, hi := b*bsz, (b+1)*bsz
		if hi > n {
			hi = n
		}
		var t int64
		for i := lo; i < hi; i++ {
			t += s[i]
		}
		sums[b] = t
	})
	// Scan block totals sequentially (nb is tiny).
	var total int64
	for b := range sums {
		t := sums[b]
		sums[b] = total
		total += t
	}
	// Pass 2: local exclusive scan seeded with the block offset.
	ForEach(p, nb, 1, func(b int) {
		lo, hi := b*bsz, (b+1)*bsz
		if hi > n {
			hi = n
		}
		run := sums[b]
		for i := lo; i < hi; i++ {
			v := s[i]
			s[i] = run
			run += v
		}
	})
	return total
}

// CountingScan computes, with p workers, the exclusive prefix sum of counts
// produced by count(i) over [0, n), returning the offsets slice (length n+1,
// offsets[n] = total). It is the "histogram then scan" idiom used to build
// CSR structures and to compact subsets.
func CountingScan(p, n int, count func(i int) int64) []int64 {
	offsets := make([]int64, n+1)
	ForEach(p, n, 4096, func(i int) { offsets[i] = count(i) })
	total := ExclusiveScan(p, offsets[:n])
	offsets[n] = total
	return offsets
}

// Pack copies the elements of src whose keep flag is set into a fresh slice,
// preserving order, using p workers. keep[i] governs src[i].
func Pack[T any](p int, src []T, keep []bool) []T {
	n := len(src)
	offsets := CountingScan(p, n, func(i int) int64 {
		if keep[i] {
			return 1
		}
		return 0
	})
	out := make([]T, offsets[n])
	ForEach(p, n, 4096, func(i int) {
		if keep[i] {
			out[offsets[i]] = src[i]
		}
	})
	return out
}

// PackIndex returns the indices i in [0, n) for which keep(i) is true, in
// increasing order, computed with p workers.
func PackIndex(p, n int, keep func(i int) bool) []uint32 {
	offsets := CountingScan(p, n, func(i int) int64 {
		if keep(i) {
			return 1
		}
		return 0
	})
	out := make([]uint32, offsets[n])
	ForEach(p, n, 4096, func(i int) {
		if keep(i) {
			out[offsets[i]] = uint32(i)
		}
	})
	return out
}
