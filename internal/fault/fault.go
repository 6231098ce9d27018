package fault

import "math/rand"

// Probs configures the per-transmission fault probabilities of an arc.
// The zero value injects nothing.
type Probs struct {
	// Drop is the probability a transmission is lost.
	Drop float64
	// Dup is the probability a transmission is delivered twice.
	Dup float64
	// Delay is the probability a transmission is deferred by 1..MaxDelay
	// extra rounds.
	Delay float64
	// MaxDelay bounds the extra rounds of a delayed transmission
	// (default 4 when Delay > 0 and MaxDelay <= 0).
	MaxDelay int
}

// Crash schedules one node failure. Restart <= At means the node never
// comes back (crash-stop); otherwise the node is down for rounds
// [At, Restart) and resumes with its state intact (crash-restart, i.e. an
// omission interval).
type Crash struct {
	// Node is the crashing node.
	Node uint32
	// At is the first round the node is down.
	At int
	// Restart is the first round the node is back up; <= At means never.
	Restart int
}

// Plan is a complete, self-contained fault schedule.
type Plan struct {
	// Seed feeds the injector's RNG; identical seeds (and identical query
	// sequences) reproduce identical fault streams.
	Seed int64
	// Default applies to every arc without an override.
	Default Probs
	// Arcs overrides Default for specific arcs (keyed by arc index: a
	// Link's arc, or a portfolio algorithm's resilient.ChaosArc).
	Arcs map[int64]Probs
	// Crashes is the node failure schedule.
	Crashes []Crash
}

// Stats counts the faults actually injected.
type Stats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
}

// Injector answers fault queries for one run. Create with New; not safe
// for concurrent use.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	stats Stats
}

// New builds an injector for plan. The plan is captured by value; the
// Crashes slice and Arcs map must not be mutated afterwards.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// ArcProbs returns the effective probabilities for arc a.
func (in *Injector) ArcProbs(a int64) Probs {
	if p, ok := in.plan.Arcs[a]; ok {
		return p
	}
	return in.plan.Default
}

// Transmit rolls the fault dice for one transmission over arc a. It returns
// whether the transmission is dropped, whether it is duplicated, and how
// many extra rounds its delivery is delayed (0 for on-time). A dropped
// transmission is neither duplicated nor delayed. Each call consumes RNG
// state, so the caller must query in a deterministic order.
func (in *Injector) Transmit(a int64) (drop, dup bool, delay int) {
	p := in.ArcProbs(a)
	if p.Drop > 0 && in.rng.Float64() < p.Drop {
		in.stats.Dropped++
		return true, false, 0
	}
	if p.Dup > 0 && in.rng.Float64() < p.Dup {
		in.stats.Duplicated++
		dup = true
	}
	if p.Delay > 0 && in.rng.Float64() < p.Delay {
		max := p.MaxDelay
		if max <= 0 {
			max = 4
		}
		delay = 1 + in.rng.Intn(max)
		in.stats.Delayed++
	}
	return false, dup, delay
}

// Alive reports whether node v is up at round r under the crash schedule.
func (in *Injector) Alive(v uint32, r int) bool {
	for _, c := range in.plan.Crashes {
		if c.Node != v || r < c.At {
			continue
		}
		if c.Restart <= c.At || r < c.Restart {
			return false
		}
	}
	return true
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Stats { return in.stats }
