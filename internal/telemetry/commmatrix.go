package telemetry

import (
	"fmt"
	"strings"
)

// CommMatrix aggregates message traffic between geographical sites: the
// measured counterpart of the paper's Table I message-count argument.
// Entry [i][j] counts messages whose sender sits on site i and receiver
// on site j (diagonal = intra-site traffic).
type CommMatrix struct {
	Names []string    `json:"names,omitempty"`
	Msgs  [][]int64   `json:"msgs"`
	Bytes [][]float64 `json:"bytes"`
}

// NewCommMatrix returns an all-zero matrix over the named sites.
func NewCommMatrix(names []string) CommMatrix {
	n := len(names)
	m := CommMatrix{Names: names, Msgs: make([][]int64, n), Bytes: make([][]float64, n)}
	msgs, bytes := make([]int64, n*n), make([]float64, n*n)
	for i := range m.Msgs {
		m.Msgs[i], m.Bytes[i] = msgs[i*n:(i+1)*n:(i+1)*n], bytes[i*n:(i+1)*n:(i+1)*n]
	}
	return m
}

// InterSite returns total cross-site messages and bytes (off-diagonal).
func (m CommMatrix) InterSite() (msgs int64, bytes float64) {
	for i := range m.Msgs {
		for j := range m.Msgs[i] {
			if i != j {
				msgs += m.Msgs[i][j]
				bytes += m.Bytes[i][j]
			}
		}
	}
	return msgs, bytes
}

// Total returns all messages and bytes.
func (m CommMatrix) Total() (msgs int64, bytes float64) {
	for i := range m.Msgs {
		for j := range m.Msgs[i] {
			msgs += m.Msgs[i][j]
			bytes += m.Bytes[i][j]
		}
	}
	return msgs, bytes
}

// name returns a site label.
func (m CommMatrix) name(i int) string {
	if i < len(m.Names) && m.Names[i] != "" {
		return m.Names[i]
	}
	return fmt.Sprintf("site%d", i)
}

// String renders the matrix as a text table (messages, with bytes in
// parentheses).
func (m CommMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "msgs (bytes)")
	for j := range m.Msgs {
		fmt.Fprintf(&b, " %20s", m.name(j))
	}
	b.WriteByte('\n')
	for i := range m.Msgs {
		fmt.Fprintf(&b, "%-14s", m.name(i))
		for j := range m.Msgs[i] {
			fmt.Fprintf(&b, " %8d (%9.3g)", m.Msgs[i][j], m.Bytes[i][j])
		}
		b.WriteByte('\n')
	}
	msgs, bytes := m.InterSite()
	fmt.Fprintf(&b, "inter-site total: %d msgs, %.6g bytes\n", msgs, bytes)
	return b.String()
}
