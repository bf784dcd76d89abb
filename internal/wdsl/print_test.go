package wdsl

import (
	"fmt"
	"strings"
)

// Print renders the file in canonical form: parsing the output yields a
// semantically identical File (Equal reports true), and printing again
// yields the same bytes.
func (f *File) Print() string {
	var b strings.Builder
	for _, m := range f.Models {
		fmt.Fprintf(&b, "model %s {\n", quote(m.Name))
		for _, l := range m.Layers {
			b.WriteString("  layer " + l.Kind)
			printAttrs(&b, l.Attrs)
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	for _, t := range f.Tenants {
		b.WriteString("tenant " + quote(t.Name))
		printAttrs(&b, t.Attrs)
		b.WriteString("\n")
	}
	if s := f.Scenario; s != nil {
		b.WriteString("scenario {\n")
		for _, a := range s.Settings {
			fmt.Fprintf(&b, "  %s = %s\n", a.Name, a.Value)
		}
		if s.Devices != nil {
			b.WriteString("  devices {\n")
			for _, name := range sortedKeys(s.Devices) {
				fmt.Fprintf(&b, "    %s = %d\n", name, s.Devices[name])
			}
			b.WriteString("  }\n")
		} else if s.DeviceCount > 0 {
			fmt.Fprintf(&b, "  devices = %d\n", s.DeviceCount)
		}
		for _, d := range s.Deploys {
			b.WriteString("  deploy " + quote(d.Model))
			printAttrs(&b, d.Attrs)
			b.WriteString("\n")
		}
		for _, tr := range s.Traffic {
			b.WriteString("  traffic " + tr.Shape)
			printAttrs(&b, tr.Attrs)
			b.WriteString("\n")
		}
		for _, st := range s.Storms {
			b.WriteString("  storm " + st.Kind)
			printAttrs(&b, st.Attrs)
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func printAttrs(b *strings.Builder, attrs []Attr) {
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.Name, a.Value)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
