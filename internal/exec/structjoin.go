package exec

import (
	"sort"

	"repro/internal/storage"
)

// OrdCount pairs an element ordinal with an occurrence count, the grouped
// output of an ancestor-descendant structural join.
type OrdCount struct {
	Ord   int32
	Count int
}

// StructuralJoinCountGuarded performs the stack-based ancestor-descendant
// structural join of Al-Khalifa et al. (ICDE 2001) between an ancestor
// list (element ordinals in document order) and a descendant list (word
// positions in document order), grouped by ancestor: it returns, for every
// ancestor element whose region contains at least one of the positions,
// the number of contained positions, in document order.
//
// Every ancestor-list element is read through the accessor — this is what
// makes the Comp2 baseline's cost proportional to the extent it scans. The
// guard (nil for none) is checked once per ancestor element scanned and per
// position merged — the loops whose size Comp2 cannot bound ahead of time.
func StructuralJoinCountGuarded(acc *storage.Accessor, doc storage.DocID, ancestors []int32, positions []uint32, g *Guard) ([]OrdCount, error) {
	type frame struct {
		ord   int32
		end   uint32
		count int
	}
	var out []OrdCount
	var stack []frame
	ai, di := 0, 0
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.count > 0 {
			if len(stack) > 0 {
				stack[len(stack)-1].count += f.count
			}
			out = append(out, OrdCount{Ord: f.ord, Count: f.count})
		}
	}
	for ai < len(ancestors) || di < len(positions) {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		if ai < len(ancestors) {
			rec := acc.Node(doc, ancestors[ai])
			if di >= len(positions) || rec.Start < positions[di] {
				for len(stack) > 0 && stack[len(stack)-1].end < rec.Start {
					pop()
				}
				stack = append(stack, frame{ord: ancestors[ai], end: rec.End})
				ai++
				continue
			}
		}
		pos := positions[di]
		di++
		for len(stack) > 0 && stack[len(stack)-1].end < pos {
			pop()
		}
		if len(stack) > 0 {
			stack[len(stack)-1].count++
		}
	}
	for len(stack) > 0 {
		pop()
	}
	// Pops are postorder; grouped structural-join output is conventionally
	// in document order of the ancestors.
	sort.Slice(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out, nil
}

// AncDescPairsGuarded performs the pair-producing variant of the
// structural join: it returns every (ancestor, descendant) ordinal pair
// where an element of alist contains an element of dlist. Both lists must
// be in document order. Used by the query compiler for structural
// predicates. The guard (nil for none) is checked once per merged list
// element — the loop scans both full input lists, so an unguarded run over
// a large document could not be cancelled or budgeted.
func AncDescPairsGuarded(acc *storage.Accessor, doc storage.DocID, alist, dlist []int32, g *Guard) ([][2]int32, error) {
	type frame struct {
		ord int32
		end uint32
	}
	var out [][2]int32
	var stack []frame
	ai, di := 0, 0
	for ai < len(alist) || di < len(dlist) {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		if ai < len(alist) {
			rec := acc.Node(doc, alist[ai])
			if di >= len(dlist) || rec.Start < acc.Node(doc, dlist[di]).Start {
				for len(stack) > 0 && stack[len(stack)-1].end < rec.Start {
					stack = stack[:len(stack)-1]
				}
				stack = append(stack, frame{ord: alist[ai], end: rec.End})
				ai++
				continue
			}
		}
		rec := acc.Node(doc, dlist[di])
		for len(stack) > 0 && stack[len(stack)-1].end < rec.Start {
			stack = stack[:len(stack)-1]
		}
		for _, f := range stack {
			if rec.End <= f.end {
				out = append(out, [2]int32{f.ord, dlist[di]})
			}
		}
		di++
	}
	return out, nil
}
