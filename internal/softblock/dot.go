package softblock

import (
	"fmt"
	"strings"
)

// DOT renders the soft-block tree in Graphviz format for visual inspection
// (e.g. `mlv decompose -dot tree.dot && dot -Tsvg tree.dot`). Leaves show
// their module and resources; pattern nodes show their kind, with pipeline
// edges labelled by stage bandwidth.
func (b *Block) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=TB;\n  node [fontname=\"monospace\"];\n")
	b.dotNode(&sb)
	sb.WriteString("}\n")
	return sb.String()
}

func (b *Block) dotNode(sb *strings.Builder) {
	switch b.Kind {
	case Leaf:
		fmt.Fprintf(sb, "  %q [shape=box, label=\"%s\\n%s\\n%s\"];\n",
			b.ID, b.ID, b.ModuleKey, compactRes(b))
	case DataParallel:
		fmt.Fprintf(sb, "  %q [shape=invtrapezium, style=filled, fillcolor=lightblue, label=\"data x%d\\n%s\"];\n",
			b.ID, len(b.Children), b.ID)
	case Pipeline:
		fmt.Fprintf(sb, "  %q [shape=cds, style=filled, fillcolor=lightyellow, label=\"pipeline\\n%s\"];\n",
			b.ID, b.ID)
	}
	for i, c := range b.Children {
		c.dotNode(sb)
		label := ""
		if b.Kind == Pipeline && i > 0 {
			label = fmt.Sprintf(" [label=\"%db\"]", b.StageBits[i-1])
		}
		fmt.Fprintf(sb, "  %q -> %q%s;\n", b.ID, c.ID, label)
	}
}

func compactRes(b *Block) string {
	parts := []string{}
	if b.Resources.LUTs > 0 {
		parts = append(parts, fmt.Sprintf("%dL", b.Resources.LUTs))
	}
	if b.Resources.DSPs > 0 {
		parts = append(parts, fmt.Sprintf("%dD", b.Resources.DSPs))
	}
	if b.Resources.BRAMKb > 0 {
		parts = append(parts, fmt.Sprintf("%dKb", b.Resources.BRAMKb))
	}
	if b.Resources.URAMKb > 0 {
		parts = append(parts, fmt.Sprintf("%dKbU", b.Resources.URAMKb))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
