package core

// DropWay0Index nils every tile's way-0 index, forcing conflict checks
// onto the full scan. Call it right after NewMachine.
func DropWay0Index(m *Machine) {
	for _, tt := range m.tiles {
		tt.way0 = way0Index{}
	}
}

// Way0Stride returns the largest way-0 index stride (words per bitmap)
// over the machine's tiles.
func Way0Stride(m *Machine) int {
	s := 0
	for _, tt := range m.tiles {
		s = max(s, tt.way0.stride)
	}
	return s
}
