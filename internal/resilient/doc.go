// Package resilient is the execution layer that keeps an MSF service
// answering under slow, panicking, or memory-hungry solves. It composes the
// mechanisms the runtime packages already provide — cooperative
// cancellation (internal/par.Canceller), panic isolation
// (par.PanicError), verification (mst.CheckForest / mst.VerifyMinimum),
// scratch sizing (mst.EstimateScratchBytes), and observability
// (internal/obs) — into one request path:
//
//	admission → breaker → hedged portfolio → verify → fallback
//
// Admission control sheds work the process cannot afford (a bounded
// concurrency gate plus a memory budget priced by workspace sizing),
// returning the typed *OverloadError. Per-algorithm circuit breakers take
// repeatedly failing algorithms out of the rotation and probe them back in
// after a cooldown. The hedged runner exploits the paper's central
// observation — the LLP-derived algorithms compute the same fixed point
// with very different latency profiles per input — by racing a backup
// algorithm against a slow primary after an adaptive delay learned from
// per-algorithm latency EWMAs keyed by graph-shape bucket; the first sound
// forest wins and the loser is cancelled. Unless configured otherwise, the
// portfolio is the paper's two kernels: LLP-Boruvka (Algorithm 6) leads on
// every graph and the sequential LLP-Prim (Algorithm 5) is its hedge; the
// learned means reorder them per shape. A primary cancelled because its
// backup won records its elapsed time as a lower bound on its latency: it
// seeds an empty cell and raises a mean it exceeds, so a primary that
// always loses its race is swapped out instead of running first forever
// unmeasured. A cancelled backup records nothing: its elapsed time is only
// the primary's lead over the hedge delay. A verification gate checks every
// winner structurally and a configurable sample of winners for minimality;
// failures trip the breaker and re-solve on a different algorithm. When the
// whole portfolio fails inside the request deadline, the runner degrades to
// sequential Kruskal rather than failing the request — a caller gets a
// verified forest or a typed error, never a silent partial result.
package resilient
