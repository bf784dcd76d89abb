package rtl

// StructuralHash exposes the structural hash to the external tests.
func (d *Design) StructuralHash(em *ElabModule) string {
	return newHasher().hash(em)
}
