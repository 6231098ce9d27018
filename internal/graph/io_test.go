package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func randomGraph(t testing.TB, seed int64, n, m int) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, W: float32(rng.Intn(1000))})
	}
	g, err := FromEdges(1, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameGraph(a, b *CSR) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	type canon struct {
		u, v uint32
		w    float32
	}
	count := make(map[canon]int)
	for _, e := range a.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		count[canon{u, v, e.W}]++
	}
	for _, e := range b.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		count[canon{u, v, e.W}]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := randomGraph(t, 7, 100, 400)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("DIMACS round trip changed the graph")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDIMACSFractionalWeights(t *testing.T) {
	g := MustFromEdges(1, 3, []Edge{{0, 1, 1.5}, {1, 2, 0.25}})
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("fractional weights not preserved")
	}
}

func TestDIMACSParsesCommentsAndBlankLines(t *testing.T) {
	in := `c USA-road-d style file
c
p sp 3 4

a 1 2 10
a 2 1 10
a 2 3 20
a 3 2 20
`
	g, err := ReadDIMACS(1, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3, 2", g.NumVertices(), g.NumEdges())
	}
}

func TestDIMACSAsymmetricArcKept(t *testing.T) {
	in := "p sp 2 1\na 1 2 5\n"
	g, err := ReadDIMACS(1, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1", g.NumEdges())
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"a 1 2 5\n",           // missing problem line
		"p sp x 1\na 1 2 5\n", // bad vertex count
		"p sp 2 1\na 0 2 5\n", // 0-based vertex
		"p sp 2 1\na 1 2\n",   // short arc line
		"p sp 2 1\nz 1 2 3\n", // unknown record
		"p sp 2 1\na 1 b 5\n", // unparsable field
		"p sp 2\na 1 2 5\n",   // malformed problem line
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(1, strings.NewReader(in)); err == nil {
			t.Fatalf("accepted malformed input %q", in)
		}
	}
}

func TestParsersRejectAbsurdVertexCounts(t *testing.T) {
	if _, err := ReadDIMACS(1, strings.NewReader("p sp 4294967295 1\na 1 2 1\n")); err == nil {
		t.Fatal("dimacs accepted 4B vertices")
	}
	if _, err := ReadMatrixMarket(1, strings.NewReader("%%MatrixMarket matrix coordinate real general\n999999999 999999999 1\n1 2 1\n")); err == nil {
		t.Fatal("mtx accepted ~1B vertices")
	}
	if _, err := ReadMETIS(1, strings.NewReader("999999999 1\n2\n")); err == nil {
		t.Fatal("metis accepted ~1B vertices")
	}
	// A corrupt binary header claiming billions of edges must fail on short
	// data, not allocate first.
	var buf bytes.Buffer
	hdr := []uint32{binMagic, binVersion, 10, 4_000_000_000}
	for _, v := range hdr {
		buf.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	if _, err := ReadBinary(1, &buf); err == nil {
		t.Fatal("binary accepted 4B-edge header with no data")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 11, 500, 3000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryRejectsCorruptHeader(t *testing.T) {
	if _, err := ReadBinary(1, bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("accepted truncated header")
	}
	var buf bytes.Buffer
	g := randomGraph(t, 3, 10, 20)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xff // corrupt magic
	if _, err := ReadBinary(1, bytes.NewReader(data)); err == nil {
		t.Fatal("accepted bad magic")
	}
	data[0] ^= 0xff
	data[4] = 99 // corrupt version
	if _, err := ReadBinary(1, bytes.NewReader(data)); err == nil {
		t.Fatal("accepted bad version")
	}
	data[4] = 1
	if _, err := ReadBinary(1, bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("accepted truncated edge list")
	}
}

// TestBinaryGoldenBytes pins the .llpg format: a fixed graph must encode to
// exactly these bytes (header magic, version, n, m; then u, v and the
// weight's float32 bits per record; all little-endian uint32) and read back
// to the same edge list.
func TestBinaryGoldenBytes(t *testing.T) {
	const golden = "47504c4c" + "01000000" + "04000000" + "04000000" +
		"00000000" + "01000000" + "0000803f" +
		"02000000" + "01000000" + "00002040" +
		"03000000" + "02000000" + "00000000" +
		"00000000" + "03000000" + "0000e040"
	g := MustFromEdges(1, 4, []Edge{{0, 1, 1}, {2, 1, 2.5}, {3, 2, 0}, {0, 3, 7}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, golden)
	}
	data, _ := hex.DecodeString(golden)
	g2, err := ReadBinary(1, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 4 || !slices.Equal(g2.Edges(), g.Edges()) {
		t.Fatalf("read back n=%d edges %v, want n=4 edges %v", g2.NumVertices(), g2.Edges(), g.Edges())
	}
}

// gpll hand-encodes a binary graph file whose header declares n vertices
// and m records, followed by recs (which need not number m).
func gpll(n, m uint32, recs ...Edge) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, binMagic)
	b = le.AppendUint32(b, binVersion)
	b = le.AppendUint32(b, n)
	b = le.AppendUint32(b, m)
	for _, e := range recs {
		b = le.AppendUint32(b, e.U)
		b = le.AppendUint32(b, e.V)
		b = le.AppendUint32(b, math.Float32bits(e.W))
	}
	return b
}

func TestReadBinaryRejectsBadRecords(t *testing.T) {
	inf := float32(math.Inf(1))
	bad := map[string]Edge{
		"out-of-range endpoint": {0, 4, 1},
		"NaN weight":            {0, 1, float32(math.NaN())},
		"+Inf weight":           {0, 1, inf},
		"-Inf weight":           {0, 1, -inf},
		"negative weight":       {0, 1, -1},
	}
	full := gpll(4, 2, Edge{0, 1, 1}, Edge{1, 2, 1})
	cases := map[string][]byte{
		"trailing partial record":  full[:len(full)-6],
		"n above MaxParseVertices": gpll(uint32(MaxParseVertices)+1, 0),
	}
	// Each bad record alone, and after 2^15 good ones, so the parallel
	// builder checks it in its last chunk.
	good := make([]Edge, 1<<15)
	for i := range good {
		good[i] = Edge{U: uint32(i % 4), V: uint32((i + 1) % 4), W: float32(i)}
	}
	for name, e := range bad {
		cases[name] = gpll(4, 1, e)
		long := append(slices.Clone(good), e)
		cases[name+" after 2^15 good records"] = gpll(4, uint32(len(long)), long...)
	}
	for name, data := range cases {
		for _, p := range []int{1, 2, 8} {
			if g, err := ReadBinary(p, bytes.NewReader(data)); err == nil {
				t.Errorf("%s, p=%d: accepted as n=%d m=%d", name, p, g.NumVertices(), g.NumEdges())
			}
		}
	}
	// Self-loops are not errors: the builder drops them.
	loops := gpll(3, 2, Edge{1, 1, 5}, Edge{0, 0, 1})
	for _, p := range []int{1, 2, 8} {
		g, err := ReadBinary(p, bytes.NewReader(loops))
		if err != nil {
			t.Fatalf("self-loop-only file, p=%d: %v", p, err)
		}
		if g.NumVertices() != 3 || g.NumEdges() != 0 {
			t.Fatalf("self-loop-only file, p=%d: n=%d m=%d, want 3, 0", p, g.NumVertices(), g.NumEdges())
		}
	}
}

func TestSaveLoadBinaryFile(t *testing.T) {
	g := randomGraph(t, 13, 50, 200)
	path := filepath.Join(t.TempDir(), "g.llpg")
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(1, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("file round trip changed the graph")
	}
	if _, err := LoadBinary(1, filepath.Join(t.TempDir(), "missing.llpg")); err == nil {
		t.Fatal("loaded a nonexistent file")
	}
}
