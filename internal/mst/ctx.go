package mst

import (
	"context"
	"fmt"
	"slices"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// Cancellation protocol shared by the parallel algorithms.
//
// Every algorithm that takes Options polls opts.Ctx cooperatively — at
// phase boundaries with Canceller.Poll and inside per-edge/per-vertex loops
// with the strided Canceller.Stride — and, when cancelled, stops and
// returns the forest built so far together with the context's error.
//
// The partial forest is always structurally sound (a subset of MSF edge
// choices made from fully completed phases: a phase whose writes were only
// partially applied is never consumed, because the poll between phases
// aborts first), but it is of course not spanning. Callers distinguish the
// cases by the error: nil error means the complete canonical MSF.

// Panic protocol, mirroring the cancellation protocol.
//
// The parallel runtime (internal/par, internal/sched) recovers worker
// panics, drains the remaining workers, and re-raises the first panic as a
// *par.PanicError on the algorithm goroutine (or returns it as an error
// from the scheduler's Obs/Ctx entry points). Each of the five parallel
// algorithms converts that into an ordinary error with recoverPanic: the
// caller gets the partial forest built so far plus an error wrapping the
// *par.PanicError (reachable via errors.As), and the process survives.
//
// The partial forest is sound for the same reason as under cancellation:
// edges enter ids either individually justified (CAS-won minimum-weight
// edges, heap-popped minimum cut edges) or in batches consumed only after
// the phase that produced them completed — and the runtime re-raises a
// phase's panic before its results are assigned.

// panicked wraps a recovered worker panic with the algorithm name and how
// far the run got, preserving errors.As(err, **par.PanicError) through %w.
func panicked(alg Algorithm, pe *par.PanicError, have, want int) error {
	return fmt.Errorf("mst: %s aborted by worker panic with %d/%d forest edges chosen: %w", alg, have, want, pe)
}

// recoverPanic is the deferred panic-to-error conversion shared by the
// parallel algorithms. It must be registered before any defer that can
// panic (e.g. a span end) — only the workspace release defer, which must
// outlive it because ids points into workspace memory, comes earlier.
// f/err must point at the algorithm's named results. ids points at the
// slice of individually sound edge choices accumulated so far; it is
// cloned, never retained, so the forest stays valid after the workspace is
// reused.
func recoverPanic(alg Algorithm, g *graph.CSR, ids *[]uint32, want int, f **Forest, err *error) {
	r := recover()
	if r == nil {
		return
	}
	pe := par.AsPanicError(r, -1)
	*f = newForest(g, slices.Clone(*ids), nil)
	*err = panicked(alg, pe, len(*ids), want)
}

// interrupted wraps a cancellation error with the algorithm name and how
// far the run got, preserving errors.Is(err, context.Canceled /
// DeadlineExceeded) through %w.
func interrupted(alg Algorithm, cc *par.Canceller, have, want int) error {
	err := cc.Err()
	if err == nil {
		// Poll observed Done but Err is read on a racing path; fall back to
		// the canonical error rather than fabricating one.
		err = context.Canceled
	}
	return fmt.Errorf("mst: %s interrupted with %d/%d forest edges chosen: %w", alg, have, want, err)
}

// ctxErr returns ctx's error, tolerating a nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// canceller builds the run's Canceller from Options (inert when no context
// is configured).
func (o Options) canceller() *par.Canceller { return par.NewCanceller(o.Ctx) }

// collector resolves the run's Collector: the explicit Options.Observer if
// set, else one carried by Options.Ctx, else the free no-op.
func (o Options) collector() obs.Collector {
	if o.Observer != nil {
		return o.Observer
	}
	return obs.FromContext(o.Ctx)
}

// RunCtx is Run under ctx: the context is installed into opts (overriding
// any Options.Ctx already set) and cancellation surfaces as a partial
// forest plus a non-nil error wrapping ctx.Err(). A pre-cancelled context
// returns before any work is done.
func RunCtx(ctx context.Context, alg Algorithm, g *graph.CSR, opts Options) (*Forest, error) {
	if ctx != nil {
		opts.Ctx = ctx
	}
	return Run(alg, g, opts)
}
