package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/xmltree"
)

// TestRoutedIngestMatchesBulkLoad grows a sharded database one Add at a
// time and checks it answers exactly like one bulk-loaded from the same
// corpus: ByHash placement depends only on names, and global ids follow
// insertion order in both paths.
func TestRoutedIngestMatchesBulkLoad(t *testing.T) {
	names, roots := corpusDocs(t, 9, 404)
	for _, n := range equivShardCounts {
		bulk := newSharded(t, n, ByHash, names, roots)
		bulk.Warm()

		grown := New(Options{Shards: n, Strategy: ByHash})
		grown.Warm() // live from the start: every Add is incremental
		for i, name := range names {
			if err := grown.Add(name, xmltree.XMLString(roots[i])); err != nil {
				t.Fatal(err)
			}
		}

		for _, terms := range [][]string{{"ctla"}, {"ctla", "ctlb"}, {"ctlc"}} {
			label := fmt.Sprintf("shards=%d terms=%v", n, terms)
			want, err := bulk.TermSearchContext(context.Background(), terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := grown.TermSearchContext(context.Background(), terms, db.TermSearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, label, got, want)
		}
		if got, want := grown.DocumentCount(), bulk.DocumentCount(); got != want {
			t.Fatalf("shards=%d: DocumentCount = %d, want %d", n, got, want)
		}
	}
}

func TestShardUpdateDelete(t *testing.T) {
	s := New(Options{Shards: 3, Strategy: ByHash})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("doc%d.xml", i)
		if err := s.Add(name, fmt.Sprintf(`<d><t>stable filler%d</t></d>`, i)); err != nil {
			t.Fatal(err)
		}
	}
	gen := s.Generation()

	// Duplicate add is a conflict.
	if err := s.Add("doc0.xml", `<d><t>dup</t></d>`); !errors.Is(err, db.ErrDocumentExists) {
		t.Fatalf("duplicate Add err = %v, want ErrDocumentExists", err)
	}

	// Update swaps content under a fresh global id, the next one Add
	// would have taken; the old id stays retired.
	oldName := s.DocName(2)
	if err := s.Update(oldName, `<d><t>stable replaced</t></d>`); err != nil {
		t.Fatal(err)
	}
	if got := s.DocName(6); got != oldName {
		t.Fatalf("Update did not move the document to global id 6: DocName(6) = %q", got)
	}
	if got := s.AllocatedDocIDs(); got != 7 {
		t.Fatalf("AllocatedDocIDs = %d after an update, want 7", got)
	}
	res, err := s.TermSearchContext(context.Background(), []string{"replaced"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("updated content not searchable")
	}
	for _, n := range res {
		if n.Doc != 6 {
			t.Fatalf("updated content surfaced under global id %d, want 6", n.Doc)
		}
	}
	if res, _ := s.TermSearchContext(context.Background(), []string{"filler2"}, db.TermSearchOptions{}); len(res) != 0 {
		t.Fatalf("old content of an updated document still searchable: %v", res)
	}

	// Delete removes the document everywhere.
	if err := s.Delete("doc4.xml"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doc4.xml"); !errors.Is(err, db.ErrDocumentNotFound) {
		t.Fatalf("double Delete err = %v, want ErrDocumentNotFound", err)
	}
	if res, _ := s.TermSearchContext(context.Background(), []string{"filler4"}, db.TermSearchOptions{}); len(res) != 0 {
		t.Fatalf("deleted document still searchable: %v", res)
	}
	if got := s.DocumentCount(); got != 5 {
		t.Fatalf("DocumentCount = %d after delete, want 5", got)
	}
	if s.Generation() == gen {
		t.Fatal("mutations did not advance the generation")
	}

	// The retired name is available again and routes stably.
	if err := s.Add("doc4.xml", `<d><t>stable reborn</t></d>`); err != nil {
		t.Fatal(err)
	}
	res, err = s.TermSearchContext(context.Background(), []string{"reborn"}, db.TermSearchOptions{})
	if err != nil || len(res) == 0 {
		t.Fatalf("re-added document not searchable: %v, %v", res, err)
	}
	for _, n := range res {
		if n.Doc == 4 {
			t.Fatal("re-added document reused its retired global id")
		}
	}
}

// TestShardIngestWhileQuerying races routed Adds against term searches;
// run under -race this is the shard-level smoke test for the LSM layer's
// snapshot isolation.
func TestShardIngestWhileQuerying(t *testing.T) {
	s := New(Options{Shards: 2, Strategy: ByHash})
	if err := s.Add("seed.xml", `<d><t>stable seed</t></d>`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.TermSearchContext(context.Background(), []string{"stable"}, db.TermSearchOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 80; i++ {
		// Each document interns a fresh tag, so Render's tag view races
		// the dictionary's growth.
		if err := s.Add(fmt.Sprintf("live%03d.xml", i), fmt.Sprintf(`<d><t%d>stable w%d</t%d></d>`, i, i%7, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	s.WaitCompaction()
	res, err := s.TermSearchContext(context.Background(), []string{"stable"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results after concurrent ingest")
	}
}

// TestShardReadersDuringAdd runs one writer doing Add against two readers
// on the facade — one on TermSearchContext, one cycling RunTermMethod
// through every method — and requires every reply to succeed,
// materialize and render. A reader that made its
// accessor before taking the segment's index snapshot could be handed a
// posting for a document its accessor had never seen: an Add landing
// between the two statements panicked with "index out of range", which
// the facade returned as an error. Run under -race (make race / stress).
func TestShardReadersDuringAdd(t *testing.T) {
	s := New(Options{Shards: 2, Strategy: RoundRobin})
	if err := s.Add("seed.xml", `<d><t>stable seed</t></d>`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	read := func(name string, query func() ([]exec.ScoredNode, error)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := query()
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			for _, r := range res {
				if s.Materialize(r.Doc, r.Ord) == nil {
					t.Errorf("%s: result (doc %d, ord %d) does not materialize", name, r.Doc, r.Ord)
					return
				}
			}
			for i, tag := range s.Render(nil, res) {
				if tag == "" {
					t.Errorf("%s: result (doc %d, ord %d) renders no tag", name, res[i].Doc, res[i].Ord)
					return
				}
			}
		}
	}
	wg.Add(2)
	go read("TermSearchContext", func() ([]exec.ScoredNode, error) {
		return s.TermSearchContext(context.Background(), []string{"stable"}, db.TermSearchOptions{})
	})
	methods := []Method{MethodTermJoin, MethodEnhancedTermJoin, MethodComp1, MethodComp2, MethodGenMeet}
	calls := 0
	go read("RunTermMethod", func() ([]exec.ScoredNode, error) {
		calls++
		res, _, err := s.RunTermMethod(context.Background(), methods[calls%len(methods)], []string{"stable"}, false)
		return res, err
	})
	for i := 0; i < 400; i++ {
		// Each document interns a fresh tag, so Render's tag view races
		// the dictionary's growth.
		if err := s.Add(fmt.Sprintf("live%03d.xml", i), fmt.Sprintf(`<d><t%d>stable w%d</t%d></d>`, i, i%7, i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
