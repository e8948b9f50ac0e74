package postings

// forceResident returns a copy of b that keeps its postings resident
// whatever the adoption rule says, so tests and fuzz targets reach the
// resident form with lists far below ResidentMinPostings.
func forceResident(b *BlockList) *BlockList {
	r := *b
	r.resident = r.decodeAll()
	return &r
}

// forceResidentParts returns parts with every whole block list replaced by
// a forced resident copy.
func forceResidentParts(parts []List) []List {
	out := make([]List, len(parts))
	for i, p := range parts {
		out[i] = p
		if bl := p.Blocks(); bl != nil {
			out[i] = forceResident(bl).All()
		}
	}
	return out
}
