package db

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// mutatedFixture builds a database that exercised every mutation: adds,
// an update, and a delete, leaving live documents b and c (c updated).
func mutatedFixture(t *testing.T) *DB {
	t.Helper()
	d := New(Options{})
	for _, c := range []struct{ name, src string }{
		{"a.xml", `<d><t>apple orchard</t></d>`},
		{"b.xml", `<d><t>banana grove</t></d>`},
		{"c.xml", `<d><t>cherry stand</t></d>`},
	} {
		if err := d.Add(c.name, c.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Update("c.xml", `<d><t>cranberry bog</t></d>`); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("a.xml"); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSaveLoadAfterMutations pins the persistence strategy for a mutated
// database: the snapshot contains only live documents (renumbered
// densely), loads into a database that answers identically, and carries a
// checked flat index.
func TestSaveLoadAfterMutations(t *testing.T) {
	d := mutatedFixture(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.DocumentCount(); got != 2 {
		t.Fatalf("reloaded DocumentCount = %d, want 2", got)
	}
	if d2.Store().DocByName("a.xml") != nil {
		t.Fatal("deleted document resurrected by reload")
	}
	// Dense renumbering: ids are 0..n-1 with no gaps.
	for i, doc := range d2.Store().Docs() {
		if int(doc.ID) != i {
			t.Fatalf("reloaded doc %d has id %d; not densely renumbered", i, doc.ID)
		}
	}
	for term, want := range map[string]int{"apple": 0, "cherry": 0, "banana": 1, "cranberry": 1} {
		res, err := d2.TermSearchContext(context.Background(), []string{term}, TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if len(res) > 0 {
			got = 1
		}
		if got != want {
			t.Fatalf("term %q searchable=%d after reload, want %d", term, got, want)
		}
	}

	// A second save of the reloaded database round-trips byte-identically:
	// the rebuild path is a fixed point.
	var buf2, buf3 bytes.Buffer
	if err := d2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	snap2 := append([]byte(nil), buf2.Bytes()...)
	d3, err := Load(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d3.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap2, buf3.Bytes()) {
		t.Fatal("save → load → save is not a fixed point after mutations")
	}
}

// TestIngestWhileQueryingMatchesBuild is the LSM layer's pinnable proof:
// a large corpus ingested one document at a time — with a reader
// hammering term searches against every intermediate snapshot — must end
// up exactly equal to a from-scratch bulk build over the final corpus.
// Add-only ingestion allocates the same monotone document ids as bulk
// loading, so after compaction even the persisted snapshots must be
// byte-identical. Run under -race this is also the concurrency proof.
func TestIngestWhileQueryingMatchesBuild(t *testing.T) {
	nDocs := 100_000
	if testing.Short() {
		nDocs = 2_000
	}
	docSrc := func(i int) string {
		// Bounded vocabulary so postings lists grow long enough to span
		// many blocks; "common" appears in every document.
		return fmt.Sprintf(`<d><t>common w%d q%d</t></d>`, i%97, i%13)
	}
	probe := []string{"w3", "q7"}

	grown := New(Options{})
	grown.Warm()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := grown.TermSearchContext(context.Background(), probe, TermSearchOptions{}); err != nil {
				select {
				case errs <- err:
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < nDocs; i++ {
		if err := grown.Add(fmt.Sprintf("doc%06d.xml", i), docSrc(i)); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent search failed: %v", err)
	default:
	}
	grown.WaitCompaction()

	scratch := New(Options{})
	for i := 0; i < nDocs; i++ {
		if err := scratch.LoadString(fmt.Sprintf("doc%06d.xml", i), docSrc(i)); err != nil {
			t.Fatal(err)
		}
	}

	gi, si := grown.Index(), scratch.Index()
	gTerms, sTerms := gi.TermsByFreq(), si.TermsByFreq()
	sort.Strings(gTerms)
	sort.Strings(sTerms)
	if !reflect.DeepEqual(gTerms, sTerms) {
		t.Fatalf("vocabularies differ: %d grown vs %d scratch terms", len(gTerms), len(sTerms))
	}
	for _, term := range gTerms {
		if !reflect.DeepEqual(gi.List(term).Materialize(), si.List(term).Materialize()) {
			t.Fatalf("postings for %q differ between ingested and bulk-built index", term)
		}
	}
	for _, terms := range [][]string{probe, {"common"}, {"q0", "w0"}} {
		got, err := grown.TermSearchContext(context.Background(), terms, TermSearchOptions{TopK: 25})
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.TermSearchContext(context.Background(), terms, TermSearchOptions{TopK: 25})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TermSearch(%v) differs:\n  grown:   %v\n  scratch: %v", terms, got, want)
		}
	}

	// Byte-identical persisted snapshots: add-only ingestion compacts to
	// the exact index a bulk build produces.
	var gBuf, sBuf bytes.Buffer
	if err := grown.Save(&gBuf); err != nil {
		t.Fatal(err)
	}
	if err := scratch.Save(&sBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gBuf.Bytes(), sBuf.Bytes()) {
		t.Fatalf("snapshots differ: %d vs %d bytes", gBuf.Len(), sBuf.Len())
	}
	t.Logf("ingested %d docs concurrently with readers; snapshot %d bytes, byte-identical to bulk build", nDocs, gBuf.Len())
}
