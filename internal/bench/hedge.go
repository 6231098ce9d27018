package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/mst"
	"llpmst/internal/resilient"
)

// HedgeRow is one row of the hedged tail-latency experiment: one dataset,
// one execution mode, and the latency distribution over repeated solves
// under injected stragglers.
type HedgeRow struct {
	Dataset   string
	Mode      string // "solo" (hedging disabled) or "hedged"
	Solves    int
	P50Ms     float64
	P95Ms     float64
	P99Ms     float64
	HedgeWins int
	Fallbacks int
	Answered  map[mst.Algorithm]int // solves answered, per algorithm
}

// HedgeCtx measures how hedged portfolio execution reshapes the latency
// tail. Every leg of every solve has a seeded chance to stall (the chaos
// injector's delay fault — a stand-in for GC pauses, noisy neighbours, or
// unlucky scheduling). The "solo" mode must eat each stall; the "hedged"
// mode launches the backup algorithm after an adaptive delay and takes
// whichever finishes first. The medians should match (hedging is ~free off
// the tail) while p95/p99 collapse toward the un-stalled latency.
func HedgeCtx(ctx context.Context, w io.Writer, sc Scale, iters, workers int, seed int64) ([]HedgeRow, error) {
	if iters < 1 {
		iters = 40
	}
	var rows []HedgeRow
	for _, d := range Datasets(sc) {
		g := cachedBuild(sc, d)
		for _, mode := range []string{"solo", "hedged"} {
			r := resilient.New(resilient.Config{
				Workers:      workers,
				DisableHedge: mode == "solo",
				HedgeFloor:   500 * time.Microsecond,
				Chaos: &resilient.Chaos{
					// ~15% of legs stall 1..4 units: long enough to dominate
					// a solve, short enough to keep the experiment quick.
					Plan: fault.Plan{
						Seed:    seed,
						Default: fault.Probs{Delay: 0.15, MaxDelay: 4},
					},
					Unit: 5 * time.Millisecond,
				},
			})
			lat := make([]time.Duration, 0, iters)
			row := HedgeRow{Dataset: d.Name, Mode: mode, Answered: map[mst.Algorithm]int{}}
			for i := 0; i < iters; i++ {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				res, err := r.Solve(ctx, g)
				if err != nil {
					return rows, fmt.Errorf("hedge %s/%s solve %d: %w", d.Name, mode, i, err)
				}
				lat = append(lat, res.Elapsed)
				row.Answered[res.Algorithm]++
				if res.HedgeWon {
					row.HedgeWins++
				}
				if res.FallbackUsed {
					row.Fallbacks++
				}
			}
			drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := r.Drain(drainCtx)
			cancel()
			if err != nil {
				return rows, fmt.Errorf("hedge %s/%s drain: %w", d.Name, mode, err)
			}
			row.Solves = len(lat)
			row.P50Ms = percentileMs(lat, 0.50)
			row.P95Ms = percentileMs(lat, 0.95)
			row.P99Ms = percentileMs(lat, 0.99)
			rows = append(rows, row)
		}
	}

	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Dataset, r.Mode, fmt.Sprintf("%d", r.Solves),
			ms(r.P50Ms), ms(r.P95Ms), ms(r.P99Ms),
			fmt.Sprintf("%.0f%%", 100*float64(r.HedgeWins)/float64(max(r.Solves, 1))),
			fmt.Sprintf("%.0f%%", 100*float64(r.Fallbacks)/float64(max(r.Solves, 1))),
			answeredBy(r.Answered),
		})
	}
	PrintTable(w, "Hedged portfolio: tail latency under injected stragglers",
		[]string{"dataset", "mode", "solves", "p50 ms", "p95 ms", "p99 ms", "hedge-win", "fallback", "answered by"}, table)
	return rows, nil
}

// answeredBy lists how many solves each algorithm answered, most first.
func answeredBy(counts map[mst.Algorithm]int) string {
	algs := make([]mst.Algorithm, 0, len(counts))
	for a := range counts {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool {
		if counts[algs[i]] != counts[algs[j]] {
			return counts[algs[i]] > counts[algs[j]]
		}
		return algs[i] < algs[j]
	})
	parts := make([]string, len(algs))
	for i, a := range algs {
		parts[i] = fmt.Sprintf("%s %d", a, counts[a])
	}
	return strings.Join(parts, ", ")
}

// percentileMs returns the p-th latency percentile in milliseconds
// (nearest-rank on a sorted copy).
func percentileMs(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}
