package mst

import (
	"fmt"

	"llpmst/internal/graph"
	"llpmst/internal/par"
)

// Incremental maintains a minimum spanning forest under online edge
// insertions — the dynamic counterpart of the batch algorithms, built on the
// same cycle property the verifier uses: a new edge (u,v) enters the
// forest iff u and v are in different trees, or the heaviest edge on their
// current tree path is heavier than the new edge (which it then replaces).
//
// The forest is stored as parent pointers with path reversal ("evert") on
// linking, so each insertion costs O(length of the affected tree path) —
// worst case O(n), typically far less. Weights share the packed
// (weight, insertion id) total order with the rest of the package, so the
// maintained forest is exactly the canonical MSF of the inserted edge set
// (tests cross-check against Kruskal after every insertion).
type Incremental struct {
	n         int
	parent    []int32  // parent vertex, -1 at roots
	parentKey []uint64 // packed key of the edge to parent
	inForest  map[uint64]bool
	edgeCount int
	nextID    uint32
	weightSum float64
	edgeByKey map[uint64][2]uint32 // key -> endpoints
	scratchU  []int32              // reusable path buffers
	scratchV  []int32
	scratchK  []uint64 // reusable key buffer for ForestEdgesInto
}

// NewIncremental creates an empty forest over n vertices.
func NewIncremental(n int) *Incremental {
	inc := &Incremental{
		n:         n,
		parent:    make([]int32, n),
		parentKey: make([]uint64, n),
		inForest:  make(map[uint64]bool),
		edgeByKey: make(map[uint64][2]uint32),
	}
	for i := range inc.parent {
		inc.parent[i] = -1
	}
	return inc
}

// N returns the number of vertices.
func (inc *Incremental) N() int { return inc.n }

// Edges returns the number of forest edges.
func (inc *Incremental) Edges() int { return inc.edgeCount }

// Weight returns the total weight of the current forest.
func (inc *Incremental) Weight() float64 { return inc.weightSum }

// Insert offers the edge (u, v, w) to the forest and reports whether the
// forest changed (the edge was added, possibly evicting a heavier one).
// Ties with previously inserted equal weights break toward the earlier
// insertion, matching the canonical (weight, id) order. Self-loops are
// rejected with ok=false.
func (inc *Incremental) Insert(u, v uint32, w float32) (ok bool, err error) {
	if int(u) >= inc.n || int(v) >= inc.n {
		return false, fmt.Errorf("mst: incremental insert (%d,%d) out of range (n=%d)", u, v, inc.n)
	}
	if w < 0 || w != w {
		return false, fmt.Errorf("mst: incremental insert with invalid weight %v", w)
	}
	if u == v {
		return false, nil
	}
	key := par.PackKey(w, inc.nextID)
	inc.nextID++
	added, _, _ := inc.insertKeyed(u, v, key)
	return added, nil
}

// InsertKeyed offers an edge under a caller-supplied packed (weight, id) key
// — the streaming engine's entry point, where edge identities must survive
// deletes, snapshots, and WAL replay. It reports whether the edge entered
// the forest and, if a heavier cycle edge was evicted to make room, that
// edge's key. Keys must be unique across live edges; the weight is carried
// by the key itself (par.KeyWeight). Endpoints are validated like Insert.
func (inc *Incremental) InsertKeyed(u, v uint32, key uint64) (added bool, evicted uint64, hadEvict bool, err error) {
	if int(u) >= inc.n || int(v) >= inc.n {
		return false, 0, false, fmt.Errorf("mst: incremental insert (%d,%d) out of range (n=%d)", u, v, inc.n)
	}
	if w := par.KeyWeight(key); w < 0 || w != w {
		return false, 0, false, fmt.Errorf("mst: incremental insert with invalid weight %v", w)
	}
	if u == v {
		return false, 0, false, nil
	}
	if _, dup := inc.edgeByKey[key]; dup {
		return false, 0, false, fmt.Errorf("mst: incremental insert reuses live key %#x", key)
	}
	added, evicted, hadEvict = inc.insertKeyed(u, v, key)
	return added, evicted, hadEvict, nil
}

// insertKeyed is the cycle-property core shared by Insert and InsertKeyed:
// link when the endpoints are in different trees, otherwise replace the
// heaviest path edge if the offer beats it.
func (inc *Incremental) insertKeyed(u, v uint32, key uint64) (added bool, evicted uint64, hadEvict bool) {
	w := par.KeyWeight(key)
	pu := inc.pathToRoot(u, &inc.scratchU)
	pv := inc.pathToRoot(v, &inc.scratchV)
	rootU, rootV := pu[len(pu)-1], pv[len(pv)-1]
	if rootU != rootV {
		// Different trees: link. Re-root u's tree at u, then hang it off v.
		inc.evert(u)
		inc.parent[u] = int32(v)
		inc.parentKey[u] = key
		inc.addEdge(key, u, v, w)
		return true, 0, false
	}
	// Same tree: find the heaviest edge on the path u..v. Trim the shared
	// root-side suffix to isolate the u..lca..v path.
	i, j := len(pu)-1, len(pv)-1
	for i > 0 && j > 0 && pu[i-1] == pv[j-1] {
		i--
		j--
	}
	var maxKey uint64
	var maxChild int32 = -1
	for k := 0; k < i; k++ { // edges pu[k] -> parent
		if pk := inc.parentKey[pu[k]]; pk > maxKey {
			maxKey, maxChild = pk, pu[k]
		}
	}
	for k := 0; k < j; k++ {
		if pk := inc.parentKey[pv[k]]; pk > maxKey {
			maxKey, maxChild = pk, pv[k]
		}
	}
	if maxChild < 0 || maxKey < key {
		return false, 0, false // new edge is the heaviest on its cycle
	}
	// Swap: cut the heaviest path edge, then link u-v.
	inc.removeEdge(maxKey)
	inc.parent[maxChild] = -1
	inc.parentKey[maxChild] = 0
	inc.evert(u)
	inc.parent[u] = int32(v)
	inc.parentKey[u] = key
	inc.addEdge(key, u, v, w)
	return true, maxKey, true
}

// Cut removes the forest edge with the given key, splitting its tree in
// two, and returns the edge's endpoints. ok is false when no forest edge
// has that key (the forest is unchanged).
func (inc *Incremental) Cut(key uint64) (u, v uint32, ok bool) {
	ends, ok := inc.edgeByKey[key]
	if !ok {
		return 0, 0, false
	}
	u, v = ends[0], ends[1]
	// The parent pointer runs in one of the two directions, depending on
	// the everts since linking.
	child := u
	if !(inc.parent[u] >= 0 && uint32(inc.parent[u]) == v && inc.parentKey[u] == key) {
		child = v
	}
	inc.parent[child] = -1
	inc.parentKey[child] = 0
	inc.removeEdge(key)
	return u, v, true
}

// HasEdge reports whether the forest currently contains the edge with the
// given key.
func (inc *Incremental) HasEdge(key uint64) bool { return inc.inForest[key] }

// ForestEdges returns the current forest as edges sorted by the canonical
// (weight, insertion id) order.
func (inc *Incremental) ForestEdges() []graph.Edge {
	return inc.ForestEdgesInto(nil)
}

// ForestEdgesInto appends the current forest to buf[:0] in the canonical
// (weight, insertion id) order and returns the result. With a buf of
// sufficient capacity it allocates nothing (the key scratch is kept inside
// the structure), so a serving path polling the forest pays zero steady-
// state allocations.
func (inc *Incremental) ForestEdgesInto(buf []graph.Edge) []graph.Edge {
	keys := inc.scratchK[:0]
	for k := range inc.inForest {
		keys = append(keys, k)
	}
	inc.scratchK = keys
	par.SortUint64(1, keys)
	out := buf[:0]
	for _, k := range keys {
		ends := inc.edgeByKey[k]
		out = append(out, graph.Edge{U: ends[0], V: ends[1], W: par.KeyWeight(k)})
	}
	return out
}

// Trees returns the number of trees (including isolated vertices).
func (inc *Incremental) Trees() int { return inc.n - inc.edgeCount }

// Connected reports whether u and v are currently in the same tree.
// Out-of-range vertices are in no tree, so they connect to nothing — the
// query answers false instead of indexing out of bounds.
func (inc *Incremental) Connected(u, v uint32) bool {
	if int(u) >= inc.n || int(v) >= inc.n {
		return false
	}
	pu := inc.pathToRoot(u, &inc.scratchU)
	pv := inc.pathToRoot(v, &inc.scratchV)
	return pu[len(pu)-1] == pv[len(pv)-1]
}

func (inc *Incremental) addEdge(key uint64, u, v uint32, w float32) {
	inc.inForest[key] = true
	inc.edgeByKey[key] = [2]uint32{u, v}
	inc.edgeCount++
	inc.weightSum += float64(w)
}

func (inc *Incremental) removeEdge(key uint64) {
	delete(inc.inForest, key)
	delete(inc.edgeByKey, key)
	inc.edgeCount--
	inc.weightSum -= float64(par.KeyWeight(key))
}

// pathToRoot returns the vertices from v (inclusive) to its root
// (inclusive), reusing the provided buffer.
func (inc *Incremental) pathToRoot(v uint32, buf *[]int32) []int32 {
	path := (*buf)[:0]
	cur := int32(v)
	for {
		path = append(path, cur)
		p := inc.parent[cur]
		if p < 0 {
			break
		}
		cur = p
	}
	*buf = path
	return path
}

// evert re-roots v's tree at v by reversing the parent pointers (and edge
// keys) along the v-to-root path.
func (inc *Incremental) evert(v uint32) {
	cur := int32(v)
	var prev int32 = -1
	var prevKey uint64
	for cur >= 0 {
		next := inc.parent[cur]
		nextKey := inc.parentKey[cur]
		inc.parent[cur] = prev
		inc.parentKey[cur] = prevKey
		prev, prevKey = cur, nextKey
		cur = next
	}
}
