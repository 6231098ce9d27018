package main

import "time"

// The benchmark shares its host with other tenants, and what they take away
// is mostly memory bandwidth. Over ten 30-second runs a register-only loop
// spread by 7-8% (interquartile range over median), a pass over 16 MB by
// 15%, and the workloads' timings by 10-23%, rising and falling with the
// memory pass. The e2e run therefore times a fixed memory pass once a
// second, between two ops, and reports every timing metric adjusted to a
// host on which that pass takes refNominal. README.md ("Host adjustment")
// has the measurements.

// refNominal is the median time of one reference pass on the 2-vCPU host
// the bounds were calibrated on.
const refNominal = 5 * time.Millisecond

// refEvery is how often the timed window pauses for a reference pass.
const refEvery = time.Second

// refPass copies a 16 MB buffer and sums the copy. It is benchmark code, so
// no change to the program can make it faster or slower.
type refPass struct {
	src, dst []float64
	sum      float64 // keeps the summing loop from being optimized away
}

func newRefPass() *refPass {
	p := &refPass{src: make([]float64, 2<<20), dst: make([]float64, 2<<20)}
	for i := range p.src {
		p.src[i] = float64(i)
	}
	p.run() // fault in dst
	return p
}

// run makes one pass and returns how long it took.
func (p *refPass) run() time.Duration {
	t0 := time.Now()
	copy(p.dst, p.src)
	s := 0.0
	for _, v := range p.dst {
		s += v
	}
	p.sum += s
	return time.Since(t0)
}
