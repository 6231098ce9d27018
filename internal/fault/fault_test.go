package fault

import (
	"slices"
	"testing"
)

// Two injectors with the same plan must produce identical decision streams —
// the foundation of replayable chaos runs.
func TestTransmitDeterminism(t *testing.T) {
	plan := Plan{
		Seed:    42,
		Default: Probs{Drop: 0.2, Dup: 0.15, Delay: 0.3, MaxDelay: 6},
	}
	type decision struct {
		drop, dup bool
		delay     int
	}
	run := func() ([]decision, Stats) {
		in := New(plan)
		var out []decision
		for i := 0; i < 2000; i++ {
			d, u, dl := in.Transmit(int64(i % 7))
			out = append(out, decision{d, u, dl})
		}
		return out, in.Stats()
	}
	a, as := run()
	b, bs := run()
	if !slices.Equal(a, b) {
		t.Fatal("identical plans produced different decision streams")
	}
	if as != bs {
		t.Fatalf("stats diverged: %+v vs %+v", as, bs)
	}
	if as.Dropped == 0 || as.Duplicated == 0 || as.Delayed == 0 {
		t.Fatalf("expected all fault kinds to fire over 2000 transmissions: %+v", as)
	}
}

func TestArcOverrides(t *testing.T) {
	in := New(Plan{
		Seed: 1,
		Arcs: map[int64]Probs{5: {Drop: 1}},
	})
	for i := 0; i < 50; i++ {
		if drop, _, _ := in.Transmit(3); drop {
			t.Fatal("default (zero) probs dropped a transmission")
		}
		if drop, _, _ := in.Transmit(5); !drop {
			t.Fatal("arc override with Drop=1 failed to drop")
		}
	}
	if got := in.Stats().Dropped; got != 50 {
		t.Fatalf("Dropped = %d, want 50", got)
	}
}

func TestDelayBounds(t *testing.T) {
	in := New(Plan{Seed: 7, Default: Probs{Delay: 1}}) // MaxDelay defaults to 4
	for i := 0; i < 200; i++ {
		_, _, delay := in.Transmit(0)
		if delay < 1 || delay > 4 {
			t.Fatalf("delay = %d, want 1..4", delay)
		}
	}
}

func TestCrashSchedules(t *testing.T) {
	in := New(Plan{
		Seed: 1,
		Crashes: []Crash{
			{Node: 3, At: 5},              // crash-stop
			{Node: 7, At: 2, Restart: 10}, // crash-restart
		},
	})
	// Crash-stop: down from round 5 forever.
	for r, want := range map[int]bool{0: true, 4: true, 5: false, 100: false} {
		if got := in.Alive(3, r); got != want {
			t.Fatalf("Alive(3, %d) = %v, want %v", r, got, want)
		}
	}
	// Crash-restart: down exactly for rounds [2, 10).
	for r, want := range map[int]bool{1: true, 2: false, 9: false, 10: true, 50: true} {
		if got := in.Alive(7, r); got != want {
			t.Fatalf("Alive(7, %d) = %v, want %v", r, got, want)
		}
	}
	// Unscheduled nodes never fail.
	if !in.Alive(0, 1000) {
		t.Fatal("unscheduled node reported dead")
	}
}
