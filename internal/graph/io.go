package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Graph I/O. Two formats:
//
//   - DIMACS shortest-path format (".gr"), the format the 9th DIMACS
//     challenge distributes USA-road-d.* in — the paper's road dataset.
//     Text, one "a u v w" line per directed arc, 1-based vertices.
//   - A compact binary format (".llpg"), mstserve's upload format and the
//     reload format of generated benchmark graphs. Every word is a
//     little-endian uint32: a 16-byte header (magic "LLPG", which reads
//     "GPLL" as bytes; version 1; n; m), then m 12-byte records (u, v, the
//     IEEE-754 bits of the float32 weight) in canonical edge-id order.
//     WriteBinary and ReadBinary move the records through one reused chunk
//     buffer with binary.LittleEndian word loops; encoding/binary's
//     reflection path is never taken.

const binMagic = 0x4c4c5047 // "LLPG"
const binVersion = 1

const (
	binHeaderBytes = 16
	binEdgeBytes   = 12
	// binChunkEdges records fill the chunk buffer.
	binChunkEdges = 1 << 16
	// binPreallocEdges bounds the edge-list capacity ReadBinary allocates
	// before any record arrives.
	binPreallocEdges = 1 << 20
)

// MaxParseVertices bounds the vertex count a parsed file may declare, so a
// corrupt or hostile header cannot force a huge allocation before any edge
// data is read. The default (2^28, ~268M) comfortably covers the largest
// public benchmark graphs (the USA road network has 23.9M vertices);
// callers loading larger graphs may raise it.
var MaxParseVertices = 1 << 28

func checkParseSize(format string, n int) error {
	if n < 0 || n > MaxParseVertices {
		return fmt.Errorf("%s: declared vertex count %d outside [0, %d] (raise graph.MaxParseVertices if intentional)",
			format, n, MaxParseVertices)
	}
	return nil
}

// WriteDIMACS writes g in DIMACS .gr format. Each undirected edge is written
// as two arc lines, matching how the DIMACS road graphs are distributed.
// Weights are written as integers when integral, else with %g.
func WriteDIMACS(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "c generated by llpmst\n")
	fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), 2*g.NumEdges())
	for _, e := range g.Edges() {
		ws := formatWeight(e.W)
		fmt.Fprintf(bw, "a %d %d %s\n", e.U+1, e.V+1, ws)
		fmt.Fprintf(bw, "a %d %d %s\n", e.V+1, e.U+1, ws)
	}
	return bw.Flush()
}

func formatWeight(w float32) string {
	if w == float32(int64(w)) && w >= 0 && w < 1e15 {
		return strconv.FormatInt(int64(w), 10)
	}
	return strconv.FormatFloat(float64(w), 'g', -1, 32)
}

// loadEdges is the common tail of every file loader: build the CSR, then
// Validate it, so graphs parsed from untrusted files are rejected rather
// than handed to the algorithms with structural damage.
func loadEdges(p, n int, edges []Edge) (*CSR, error) {
	g, err := FromEdges(p, n, edges)
	if err != nil {
		return nil, err
	}
	if err := Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadDIMACS parses a DIMACS .gr file into a CSR graph built with p workers.
// The format lists directed arcs; every two occurrences of the same
// (endpoints, weight) triple collapse into one undirected edge, so symmetric
// files round-trip exactly, parallel edges survive, and an arc without its
// reverse still becomes an undirected edge. Edge order (and therefore the
// canonical edge ids) is the first-appearance order in the file, so loading
// is deterministic.
func ReadDIMACS(p int, r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	type arcKey struct {
		u, v uint32
		w    float32
	}
	var order []arcKey
	count := make(map[arcKey]int)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line %q", line, text)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad vertex count: %v", line, err)
			}
			if err := checkParseSize("dimacs", nv); err != nil {
				return nil, err
			}
			n = nv
		case 'a':
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed arc line %q", line, text)
			}
			u, err1 := strconv.ParseUint(fields[1], 10, 32)
			v, err2 := strconv.ParseUint(fields[2], 10, 32)
			w, err3 := strconv.ParseFloat(fields[3], 32)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs line %d: bad arc %q", line, text)
			}
			if u == 0 || v == 0 {
				return nil, fmt.Errorf("dimacs line %d: vertices are 1-based, got %q", line, text)
			}
			a, b := uint32(u-1), uint32(v-1)
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			k := arcKey{lo, hi, float32(w)}
			if count[k] == 0 {
				order = append(order, k)
			}
			count[k]++
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	var edges []Edge
	for _, k := range order {
		c := count[k]
		for i := 0; i < c/2+c%2; i++ {
			edges = append(edges, Edge{U: k.u, V: k.v, W: k.w})
		}
	}
	return loadEdges(p, n, edges)
}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *CSR) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, binHeaderBytes+min(g.NumEdges(), binChunkEdges)*binEdgeBytes)
	buf = le.AppendUint32(buf, binMagic)
	buf = le.AppendUint32(buf, binVersion)
	buf = le.AppendUint32(buf, uint32(g.NumVertices()))
	buf = le.AppendUint32(buf, uint32(g.NumEdges()))
	for _, e := range g.Edges() {
		if len(buf)+binEdgeBytes > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = le.AppendUint32(buf, e.U)
		buf = le.AppendUint32(buf, e.V)
		buf = le.AppendUint32(buf, math.Float32bits(e.W))
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary reads a graph written by WriteBinary, building the CSR with p
// workers.
func ReadBinary(p int, r io.Reader) (*CSR, error) {
	var hdr [binHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("binary graph: short header: %w", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != binMagic {
		return nil, fmt.Errorf("binary graph: bad magic %#x", magic)
	}
	if version := le.Uint32(hdr[4:]); version != binVersion {
		return nil, fmt.Errorf("binary graph: unsupported version %d", version)
	}
	n, m := int(le.Uint32(hdr[8:])), int(le.Uint32(hdr[12:]))
	if err := checkParseSize("binary graph", n); err != nil {
		return nil, err
	}
	// The edge list grows as records arrive, from a bounded capacity, so a
	// corrupt header cannot force one huge allocation before any data does.
	edges := make([]Edge, 0, min(m, binPreallocEdges))
	buf := make([]byte, min(m, binChunkEdges)*binEdgeBytes)
	for len(edges) < m {
		b := buf[:min(m-len(edges), binChunkEdges)*binEdgeBytes]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("binary graph: short edge list: %w", err)
		}
		for ; len(b) > 0; b = b[binEdgeBytes:] {
			edges = append(edges, Edge{U: le.Uint32(b), V: le.Uint32(b[4:]), W: math.Float32frombits(le.Uint32(b[8:]))})
		}
	}
	return loadEdges(p, n, edges)
}

// SaveBinary writes g to the named file in binary format.
func SaveBinary(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph from the named binary file.
func LoadBinary(p int, path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(p, f)
}
