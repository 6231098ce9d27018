package unionfind

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestUFBasic(t *testing.T) {
	u := New(5)
	if u.Count() != 5 {
		t.Fatalf("Count = %d", u.Count())
	}
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("fresh unions should succeed")
	}
	if u.Union(0, 1) {
		t.Fatal("repeat union should fail")
	}
	if !u.Same(0, 1) || u.Same(1, 2) {
		t.Fatal("Same wrong")
	}
	u.Union(1, 3)
	if !u.Same(0, 2) {
		t.Fatal("transitivity broken")
	}
	if u.Count() != 2 {
		t.Fatalf("Count = %d, want 2", u.Count())
	}
}

func TestUFReset(t *testing.T) {
	u := New(4)
	u.Union(0, 1)
	u.Union(2, 3)
	u.Reset()
	if u.Count() != 4 || u.Same(0, 1) {
		t.Fatal("Reset incomplete")
	}
}

func TestUFFindIdempotentAndCanonical(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		const n = 32
		u := New(n)
		for _, op := range ops {
			u.Union(uint32(op[0])%n, uint32(op[1])%n)
		}
		// Find is idempotent and roots are self-parented.
		for x := uint32(0); x < n; x++ {
			r := u.Find(x)
			if u.Find(r) != r || u.Find(x) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUFAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	u := New(n)
	// Naive labels.
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		wantNew := label[a] != label[b]
		gotNew := u.Union(a, b)
		if wantNew != gotNew {
			t.Fatalf("op %d: Union(%d,%d) = %v, want %v", i, a, b, gotNew, wantNew)
		}
		if wantNew {
			relabel(label[a], label[b])
		}
		// Spot-check equivalences.
		x, y := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u.Same(x, y) != (label[x] == label[y]) {
			t.Fatalf("op %d: Same(%d,%d) disagrees with oracle", i, x, y)
		}
	}
}

func TestConcurrentSequentialSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	c := NewConcurrent(n)
	u := New(n)
	for i := 0; i < 3000; i++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if got, want := c.Union(a, b), u.Union(a, b); got != want {
			t.Fatalf("op %d: Union(%d,%d) = %v, oracle %v", i, a, b, got, want)
		}
	}
	if c.Count() != u.Count() {
		t.Fatalf("Count = %d, oracle %d", c.Count(), u.Count())
	}
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y += 7 {
			if (c.Find(x) == c.Find(y)) != u.Same(x, y) {
				t.Fatalf("Same(%d,%d) disagrees", x, y)
			}
		}
	}
}

func TestConcurrentParallelUnionsFormOneComponent(t *testing.T) {
	const n = 1 << 12
	c := NewConcurrent(n)
	var wg sync.WaitGroup
	// 8 goroutines union random pairs plus a chain guaranteeing full
	// connectivity.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				c.Union(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+1 < n; i++ {
			c.Union(uint32(i), uint32(i+1))
		}
	}()
	wg.Wait()
	if got := c.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	root := c.Find(0)
	for x := uint32(1); x < n; x++ {
		if c.Find(x) != root {
			t.Fatalf("element %d not in the single component", x)
		}
	}
}

func TestConcurrentExactlyOneWinnerPerMerge(t *testing.T) {
	// If k goroutines all union the same pair, exactly one must report
	// having performed the merge.
	for trial := 0; trial < 50; trial++ {
		c := NewConcurrent(4)
		var wins [16]bool
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wins[w] = c.Union(1, 2)
			}(w)
		}
		wg.Wait()
		count := 0
		for _, w := range wins {
			if w {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("trial %d: %d winners, want exactly 1", trial, count)
		}
	}
}

func TestConcurrentLen(t *testing.T) {
	if NewConcurrent(17).Len() != 17 {
		t.Fatal("Len wrong")
	}
}

func TestConcurrentReset(t *testing.T) {
	c := NewConcurrent(8)
	c.Union(0, 1)
	c.Union(2, 3)

	// Reset to the same size: all prior merges forgotten.
	c.Reset(8)
	if c.Count() != 8 || c.Find(0) == c.Find(1) || c.Find(2) == c.Find(3) {
		t.Fatal("Reset(8) did not restore singletons")
	}

	// Shrink: reuses storage, still singletons.
	c.Reset(3)
	if c.Len() != 3 || c.Count() != 3 {
		t.Fatalf("after Reset(3): Len=%d Count=%d", c.Len(), c.Count())
	}

	// Grow past capacity: fresh storage, correct semantics.
	c.Reset(100)
	if c.Len() != 100 || c.Count() != 100 {
		t.Fatalf("after Reset(100): Len=%d Count=%d", c.Len(), c.Count())
	}
	c.Union(50, 99)
	if c.Find(50) != c.Find(99) || c.Find(0) == c.Find(50) {
		t.Fatal("union after grow Reset broken")
	}

	// A shrink Reset within capacity must not allocate.
	c.Reset(100)
	if n := testing.AllocsPerRun(20, func() { c.Reset(64) }); n != 0 {
		t.Fatalf("Reset within capacity allocated %v times per run", n)
	}
}

func BenchmarkUFUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := New(n)
		for _, p := range pairs {
			u.Union(p[0], p[1])
		}
	}
}

func BenchmarkConcurrentUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NewConcurrent(n)
		for _, p := range pairs {
			u.Union(p[0], p[1])
		}
	}
}
