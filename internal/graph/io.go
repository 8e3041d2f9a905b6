package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteEdgeList serializes g in a plain-text edge-list format:
//
//	# scalegnn edgelist v1
//	# nodes <N> directed <bool>
//	u v [w]
//
// For undirected graphs each edge is written once (u < v). Weights are
// omitted when the graph is unweighted.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	directed := !g.undirected
	if _, err := fmt.Fprintf(bw, "# scalegnn edgelist v1\n# nodes %d directed %t\n", g.N, directed); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	var edges []Edge
	if g.undirected {
		edges = g.UndirectedEdges()
	} else {
		edges = g.Edges()
	}
	weighted := g.Weights != nil
	for _, e := range edges {
		var err error
		if weighted {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		}
		if err != nil {
			return fmt.Errorf("graph: write edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines beginning
// with '#' other than the header are ignored, so hand-written edge lists
// with comments also load; in that case the node count is inferred as
// max(endpoint)+1 and the graph is undirected.
//
// Malformed input fails with a positional error rather than loading a
// silently wrong graph: negative node ids, ids or a declared node count
// that do not fit the CSR's int32 targets, ids outside the header's
// declared range, NaN or infinite weights, and a final line cut off without
// its newline (the signature of a truncated download or torn copy —
// WriteEdgeList always terminates the file with one) are all rejected.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	n := -1
	b := &Builder{} // edges go straight into its slice; N is known only at the end
	maxID := -1
	lineNo := 0
	var long []byte // a line longer than br's buffer, reassembled
	for {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("graph: read: %w", err)
		}
		atEOF := err == io.EOF
		if len(raw) == 0 && atEOF {
			break
		}
		lineNo++
		line := bytes.TrimSpace(raw)
		if atEOF && len(line) != 0 {
			return nil, fmt.Errorf("graph: line %d: truncated final line (missing newline): %q", lineNo, raw)
		}
		if len(line) == 0 {
			if atEOF {
				break
			}
			continue
		}
		if line[0] == '#' {
			if bytes.HasPrefix(line, []byte("# nodes ")) {
				var d bool
				var nn int
				// The count is checked as soon as it parses, so a header cut
				// short after it cannot pass an absurd count off as a comment.
				k, _ := fmt.Sscanf(string(line), "# nodes %d directed %t", &nn, &d)
				switch {
				case k >= 1 && nn < 0:
					return nil, fmt.Errorf("graph: line %d: header declares negative node count %d", lineNo, nn)
				case k >= 1 && nn > math.MaxInt32:
					return nil, fmt.Errorf("graph: line %d: header declares %d nodes, more than int32 node ids can address", lineNo, nn)
				case k == 2:
					n, b.Directed = nn, d
				}
			}
			continue
		}
		var fields [3][]byte
		nf, ok := splitFields(line, &fields)
		if !ok || nf < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		v, err := strconv.Atoi(string(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %w", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id in edge (%d,%d)", lineNo, u, v)
		}
		// CSR.Adj is []int32: a larger id must fail here, not wrap (or size
		// an allocation) in Build.
		if u > math.MaxInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: node id past int32 in edge (%d,%d)", lineNo, u, v)
		}
		if n >= 0 && (u >= n || v >= n) {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) outside declared range [0,%d)", lineNo, u, v, n)
		}
		w := 1.0
		if nf == 3 {
			w, err = strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: non-finite weight %q", lineNo, fields[2])
			}
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		b.AddWeightedEdge(u, v, w)
	}
	if n < 0 {
		n = maxID + 1
	}
	b.N = n
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: build from edge list: %w", err)
	}
	return g, nil
}

// splitFields splits a trimmed line on white space into at most three
// fields, as bytes.Fields would; ok is false when there are more. A line
// with any non-ASCII byte goes through bytes.Fields itself, so Unicode
// separators such as U+00A0 split it too.
func splitFields(line []byte, fields *[3][]byte) (nf int, ok bool) {
	if !isASCII(line) {
		fs := bytes.Fields(line)
		if len(fs) > len(fields) {
			return 0, false
		}
		return copy(fields[:], fs), true
	}
	for i := 0; i < len(line); {
		if asciiSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if nf == len(fields) {
			return 0, false
		}
		fields[nf] = line[i:j]
		nf++
		i = j
	}
	return nf, true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// asciiSpace is unicode.IsSpace restricted to ASCII.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}
