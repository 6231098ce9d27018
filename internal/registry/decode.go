package registry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"llpmst/internal/graph"
)

// binaryMagic is the on-wire prefix of the compact binary format: the
// little-endian encoding of graph's LLPG magic word reads "GPLL" as raw
// bytes, which is what arrives first on a socket or at the head of a file.
var binaryMagic = []byte("GPLL")

// Decode sniffs r's leading magic and parses either the binary .llpg format
// or DIMACS .gr text into a CSR whose edge list has passed the loaders'
// exact checks. The arc arrays are not built yet: the first solve that
// reads them (a Prim-family leg) builds and validates them with the given
// worker count (see graph.CSR). It is the single ingestion path for the
// registry and for mstserve uploads, so fuzzing Decode covers both.
func Decode(workers int, r io.Reader) (*graph.CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(len(binaryMagic))
	if err != nil && len(magic) == 0 {
		return nil, fmt.Errorf("registry: empty graph data: %w", err)
	}
	if bytes.Equal(magic, binaryMagic) {
		return graph.ReadBinary(workers, br)
	}
	return graph.ReadDIMACS(workers, br)
}
