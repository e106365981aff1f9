package index

import (
	"bytes"
	"fmt"

	"github.com/midas-graph/midas/internal/sparse"
)

// Fingerprint returns a canonical byte serialisation of the full index
// state: the sorted feature and infrequent-edge row keys, the trie's
// terminal keys and size counters, and the four matrices as sorted
// (row, col, value) triplets. Two Indices with the same logical content
// produce identical bytes regardless of the operation history that
// built them, so the index oracle can compare an index maintained in
// place against a from-scratch Build with bytes.Equal.
func (ix *Indices) Fingerprint() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "features %d\n", len(ix.features))
	for _, key := range ix.FeatureKeys() {
		fmt.Fprintf(&buf, "f %q\n", key)
	}
	fmt.Fprintf(&buf, "ife %d\n", len(ix.ife))
	for _, label := range ix.IFELabels() {
		fmt.Fprintf(&buf, "e %q\n", label)
	}
	fmt.Fprintf(&buf, "trie nodes=%d terms=%d\n", ix.Trie.NodeCount(), ix.Trie.Len())
	for _, key := range ix.Trie.Keys() {
		fmt.Fprintf(&buf, "t %q\n", key)
	}
	writeMatrix(&buf, "TG", ix.TG)
	writeMatrix(&buf, "TP", ix.TP)
	writeMatrix(&buf, "EG", ix.EG)
	writeMatrix(&buf, "EP", ix.EP)
	return buf.Bytes()
}

func writeMatrix(buf *bytes.Buffer, name string, m *sparse.Matrix) {
	ts := m.Triplets()
	fmt.Fprintf(buf, "%s nnz=%d\n", name, len(ts))
	for _, t := range ts {
		fmt.Fprintf(buf, "%q %d %d\n", t.Row, t.Col, t.Value)
	}
}
