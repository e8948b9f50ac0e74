// Package exec mirrors the real execution package: a Guard type whose
// consultation guardcheck demands around every storage-access loop.
package exec

import (
	"errors"

	"fixture/postings"
	"fixture/storage"
)

var errStop = errors.New("exec: budget exhausted")

// Guard is a minimal cooperative budget checker.
type Guard struct {
	ticks  int64
	budget int64
}

// Tick records one unit of work.
func (g *Guard) Tick() error {
	if g == nil {
		return nil
	}
	g.ticks++
	if g.budget > 0 && g.ticks > g.budget {
		return errStop
	}
	return nil
}

// SumUnguarded fetches records in a loop with no guard anywhere in scope.
func SumUnguarded(acc *storage.Accessor, ords []int32) int32 {
	var total int32
	for _, o := range ords { // want "guardcheck: loop calls storage accessor Accessor.Node without consulting exec.Guard"
		total += acc.Node(o).Parent
	}
	return total
}

// SumHalfGuarded ticks in its first loop but forgets the second.
func SumHalfGuarded(g *Guard, acc *storage.Accessor, ords []int32) (int32, error) {
	var total int32
	for _, o := range ords {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		total += acc.Node(o).Parent
	}
	for _, o := range ords { // want "guardcheck: loop calls storage accessor Accessor.Node without consulting exec.Guard"
		total += acc.Node(o).Parent
	}
	return total, nil
}

// Delegated passes the guard down with every access, which counts as
// consultation.
func Delegated(g *Guard, acc *storage.Accessor, ords []int32) int32 {
	var total int32
	for _, o := range ords {
		total += fetch(g, acc, o)
	}
	return total
}

func fetch(g *Guard, acc *storage.Accessor, o int32) int32 {
	if g.Tick() != nil {
		return 0
	}
	return acc.Node(o).Parent
}

// ScanUnguarded drains a postings cursor with no guard anywhere in scope:
// each Cur/Advance may decode a compressed block.
func ScanUnguarded(l postings.List) uint32 {
	var total uint32
	for cur := postings.NewCursor(l); cur.Valid(); cur.Advance() { // want "guardcheck: loop calls storage accessor Cursor.Cur without consulting exec.Guard"
		total += cur.Cur().Pos
	}
	return total
}

// ScanGuarded ticks per cursor step — the sanctioned pattern.
func ScanGuarded(g *Guard, l postings.List) (uint32, error) {
	var total uint32
	for cur := postings.NewCursor(l); cur.Valid(); cur.Advance() {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		total += cur.Cur().Pos
	}
	return total, nil
}

// DecodeUnguarded materializes whole lists inside a loop without a guard.
func DecodeUnguarded(lists []postings.List) int {
	total := 0
	for _, l := range lists { // want "guardcheck: loop calls storage accessor List.Materialize without consulting exec.Guard"
		total += len(l.Materialize())
	}
	return total
}

// CountUnguarded counts documents list by list without a guard, as a
// top-k interval open would.
func CountUnguarded(lists []postings.List) int {
	var counts []postings.DocCount
	for _, l := range lists { // want "guardcheck: loop calls storage accessor List.AppendDocCounts without consulting exec.Guard"
		counts = l.AppendDocCounts(counts[:0])
	}
	return len(counts)
}

// GallopUnguarded mirrors the galloping phrase intersection: a driver
// cursor scanned occurrence by occurrence, verifier cursors skipped
// forward with SeekPos. The verifier seeks may each decode a block (or
// rank into a bitmap), so the loop is charged and must tick.
func GallopUnguarded(driver, verifier *postings.Cursor) uint32 {
	var hits uint32
	for ; driver.Valid(); driver.Advance() { // want "guardcheck: loop calls storage accessor Cursor.Cur without consulting exec.Guard"
		want := driver.Cur().Pos + 1
		verifier.SeekPos(want)
		if verifier.Valid() && verifier.Cur().Pos == want {
			hits++
		}
	}
	return hits
}

// GallopGuarded ticks once per driver occurrence — the sanctioned
// pattern: each tick bounds one driver step plus its verifier seeks.
func GallopGuarded(g *Guard, driver, verifier *postings.Cursor) (uint32, error) {
	var hits uint32
	for ; driver.Valid(); driver.Advance() {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		want := driver.Cur().Pos + 1
		verifier.SeekPos(want)
		if verifier.Valid() && verifier.Cur().Pos == want {
			hits++
		}
	}
	return hits, nil
}

// LenLoop only reads uncharged metadata; no guard is required.
func LenLoop(lists []postings.List) int {
	total := 0
	for _, l := range lists {
		total += l.Len()
	}
	return total
}
