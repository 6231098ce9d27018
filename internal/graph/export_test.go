package graph

// Hooks into the deferred adjacency build for the tests.

// AdjacencyBuilt reports whether g's arc arrays exist. Call it only when no
// build can be running.
func AdjacencyBuilt(g *CSR) bool { return g.offsets != nil }

// AdjacencyBuilds returns how many deferred builds g has run. Call it only
// when no build can be running.
func AdjacencyBuilds(g *CSR) int { return g.builds }

// DeferEdges returns a loaded graph over edges that skipped the load-time
// check, so its deferred build may fail.
func DeferEdges(p, n int, edges []Edge) *CSR { return deferredCSR(p, n, edges) }
