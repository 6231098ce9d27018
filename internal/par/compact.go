package par

// Workspace-friendly compaction. The Pack* helpers in scan.go allocate an
// offsets array of length n+1 per call; the *Into variants here instead
// split the input into one contiguous chunk per worker, have each worker
// compact its chunk's survivors in place at the chunk's own start index and
// count them into a cache-line-padded counter block, then close the gaps
// sequentially (closeGaps). The predicate or transform runs once per
// element, the output order is identical to the allocating variants
// (stable, input order), no channel or atomic append is involved, and a
// caller that reuses dst and pad performs zero allocations in steady state
// — the compaction discipline the Boruvka-family contraction loops need to
// stay allocation-free across rounds.

// PadStride is the int64 spacing between per-worker slots in a padded
// counter block: 8 int64s = 64 bytes, one cache line, so two workers
// bumping their counts never false-share.
const PadStride = 8

// PadBlock returns a counter block with one cache-line-padded slot for each
// of p workers, reusing pad when it is large enough.
func PadBlock(pad []int64, p int) []int64 {
	if need := p * PadStride; cap(pad) < need {
		return make([]int64, need)
	} else {
		return pad[:need]
	}
}

// chunkBounds splits [0, n) into p contiguous chunks and returns chunk w's
// bounds. The first n%p chunks are one element longer.
func chunkBounds(w, p, n int) (lo, hi int) {
	size, rem := n/p, n%p
	lo = w*size + min(w, rem)
	hi = lo + size
	if w < rem {
		hi++
	}
	return lo, hi
}

// closeGaps moves each worker's survivor run, which starts at its chunk's
// start index and whose length is in pad, down to follow the runs before
// it, and returns the total. A run never moves past its own chunk's start,
// so moving the runs in worker order overwrites only consumed slots.
func closeGaps[T any](dst []T, pad []int64, p int) int {
	n, total := len(dst), 0
	for w := 0; w < p; w++ {
		lo, _ := chunkBounds(w, p, n)
		c := int(pad[w*PadStride])
		if lo != total {
			copy(dst[total:total+c], dst[lo:lo+c])
		}
		total += c
	}
	return total
}

// FilterMapInto writes f's accepted transforms of src, in input order, into
// dst and returns the filled slice. f runs exactly once per element. dst
// must hold len(src) elements, since each worker writes its survivors at
// its chunk's own start index; a shorter dst is grown. pad is the padded
// per-worker counter block (see PadBlock; nil allocates a transient one).
// dst must not alias src.
//
// At p > 1 the gap closing (closeGaps) is a serial step on the calling
// goroutine: it copies every run but the first, up to (1-1/p) of the
// survivors. It has been measured only at p = 2; at high worker counts this
// O(survivors) copy may bound the speedup.
func FilterMapInto[S, D any](p int, dst []D, src []S, pad []int64, f func(S) (D, bool)) []D {
	n := len(src)
	if n == 0 {
		return dst[:0]
	}
	p = Workers(p)
	if p > n {
		p = n
	}
	if p == 1 {
		dst = dst[:0]
		for i := range src {
			if d, ok := f(src[i]); ok {
				dst = append(dst, d)
			}
		}
		return dst
	}
	if cap(dst) < n {
		dst = make([]D, n)
	}
	dst = dst[:n]
	pad = PadBlock(pad, p)
	ForEach(p, p, 1, func(w int) {
		lo, hi := chunkBounds(w, p, n)
		at := lo
		for i := lo; i < hi; i++ {
			if d, ok := f(src[i]); ok {
				dst[at] = d
				at++
			}
		}
		pad[w*PadStride] = int64(at - lo)
	})
	return dst[:closeGaps(dst, pad, p)]
}

// FilterInto is FilterMapInto with the identity transform: the elements of
// src satisfying keep, in input order. The sequential path appends directly
// (no adapter closure), so it is allocation-free with a sufficient dst.
func FilterInto[T any](p int, dst, src []T, pad []int64, keep func(T) bool) []T {
	if Workers(p) == 1 || len(src) <= 1 {
		dst = dst[:0]
		for i := range src {
			if keep(src[i]) {
				dst = append(dst, src[i])
			}
		}
		return dst
	}
	return FilterMapInto(p, dst, src, pad, func(x T) (T, bool) { return x, keep(x) })
}

// PackIndexInto is FilterMapInto over the indices [0, n) instead of a
// source slice: f(i) runs once per index and its accepted results land in
// dst in increasing i. With f(i) = (uint32(i), keep(i)) it is PackIndex
// writing into dst; a caller that reads its input by index (another
// slice's elements, or several slices at once) compacts it without first
// copying it into a source slice. dst must hold n elements (it is grown
// otherwise). Zero allocations when dst and pad are large enough.
func PackIndexInto[D any](p, n int, dst []D, pad []int64, f func(i int) (D, bool)) []D {
	if n == 0 {
		return dst[:0]
	}
	p = Workers(p)
	if p > n {
		p = n
	}
	if p == 1 {
		dst = dst[:0]
		for i := 0; i < n; i++ {
			if d, ok := f(i); ok {
				dst = append(dst, d)
			}
		}
		return dst
	}
	if cap(dst) < n {
		dst = make([]D, n)
	}
	dst = dst[:n]
	pad = PadBlock(pad, p)
	ForEach(p, p, 1, func(w int) {
		lo, hi := chunkBounds(w, p, n)
		at := lo
		for i := lo; i < hi; i++ {
			if d, ok := f(i); ok {
				dst[at] = d
				at++
			}
		}
		pad[w*PadStride] = int64(at - lo)
	})
	return dst[:closeGaps(dst, pad, p)]
}

// Fill sets every element of s to v, in parallel with p workers. The
// sequential cases loop inline and allocate nothing.
func Fill[T any](p int, s []T, v T) {
	n := len(s)
	if Workers(p) == 1 || n <= 8192 {
		for i := range s {
			s[i] = v
		}
		return
	}
	For(p, n, 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = v
		}
	})
}
