package index

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tokenize"
	"repro/internal/xmltree"
)

// corruptStarts swaps the Start keys of the first two text nodes of doc,
// breaking the (Doc, Pos) invariant for any term both nodes contain.
func corruptStarts(t *testing.T, doc *storage.Document) {
	t.Helper()
	var texts []int
	for ord := range doc.Nodes {
		if doc.Nodes[ord].Kind == xmltree.Text {
			texts = append(texts, ord)
		}
	}
	if len(texts) < 2 {
		t.Fatal("need at least two text nodes to corrupt")
	}
	i, j := texts[0], texts[1]
	doc.Nodes[i].Start, doc.Nodes[j].Start = doc.Nodes[j].Start, doc.Nodes[i].Start
}

func TestBuildCheckedRejectsDisorderedPostings(t *testing.T) {
	s := storage.NewStore()
	if _, err := s.AddTree("bad.xml", mustParse(`<d><t>alpha beta</t><t>alpha</t></d>`)); err != nil {
		t.Fatal(err)
	}
	corruptStarts(t, s.DocByName("bad.xml"))

	_, err := BuildChecked(s, tokenize.New())
	if err == nil {
		t.Fatal("BuildChecked accepted a disordered posting stream")
	}
	if !errors.Is(err, ErrPostingOrder) {
		t.Fatalf("err = %v, want ErrPostingOrder", err)
	}
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not a *BuildError", err)
	}
	if be.Term != "alpha" {
		t.Fatalf("offending term = %q, want %q", be.Term, "alpha")
	}
	if !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("error message %q does not name the term", err)
	}
}

func TestBuildPanicsOnDisorderedPostings(t *testing.T) {
	s := storage.NewStore()
	if _, err := s.AddTree("bad.xml", mustParse(`<d><t>zz yy</t><t>zz</t></d>`)); err != nil {
		t.Fatal(err)
	}
	corruptStarts(t, s.DocByName("bad.xml"))
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on a disordered posting stream")
		}
	}()
	Build(s, tokenize.New())
}

func TestCheckOrdinalCap(t *testing.T) {
	if err := checkOrdinalCap(math.MaxInt32, "ok.xml"); err != nil {
		t.Fatalf("cap rejected a representable node count: %v", err)
	}
	err := checkOrdinalCap(math.MaxInt32+1, "huge.xml")
	if !errors.Is(err, ErrOrdinalOverflow) {
		t.Fatalf("err = %v, want ErrOrdinalOverflow", err)
	}
	if !strings.Contains(err.Error(), "huge.xml") {
		t.Fatalf("error %q does not name the document", err)
	}
}

// newLiveOver builds a Live over the given documents with test-friendly
// thresholds (tiny memtables, manual compaction unless auto is set).
func newLiveOver(t *testing.T, docs []string, cfg LiveConfig) (*storage.Store, *Live) {
	t.Helper()
	s := storage.NewStore()
	l, err := NewLive(s, tokenize.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range docs {
		addLiveDoc(t, s, l, fmt.Sprintf("doc%03d.xml", i), src)
	}
	return s, l
}

func addLiveDoc(t *testing.T, s *storage.Store, l *Live, name, src string) storage.DocID {
	t.Helper()
	id, err := s.AddTree(name, mustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.IndexDoc(s.Doc(id)); err != nil {
		t.Fatal(err)
	}
	return id
}

// assertSameIndex checks that every term of want yields byte-identical
// postings and matching statistics from got.
func assertSameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	terms := want.TermsByFreq()
	if gotTerms := got.TermsByFreq(); !reflect.DeepEqual(gotTerms, terms) {
		t.Fatalf("vocabularies differ: got %d terms, want %d", len(gotTerms), len(terms))
	}
	for _, term := range terms {
		if !reflect.DeepEqual(got.List(term).Materialize(), want.List(term).Materialize()) {
			t.Fatalf("postings for %q differ", term)
		}
		if got.TermFreq(term) != want.TermFreq(term) {
			t.Fatalf("TermFreq(%q) = %d, want %d", term, got.TermFreq(term), want.TermFreq(term))
		}
		if got.NodeFreq(term) != want.NodeFreq(term) {
			t.Fatalf("NodeFreq(%q) = %d, want %d", term, got.NodeFreq(term), want.NodeFreq(term))
		}
	}
	if got.TotalOccurrences() != want.TotalOccurrences() {
		t.Fatalf("TotalOccurrences = %d, want %d", got.TotalOccurrences(), want.TotalOccurrences())
	}
}

func TestLiveIngestMatchesFromScratchBuild(t *testing.T) {
	var docs []string
	for i := 0; i < 60; i++ {
		docs = append(docs, fmt.Sprintf(`<d><t>tix w%d shared</t><t>again w%d</t></d>`, i%7, i%5))
	}
	// Tiny memtable so the run exercises seal + multi-segment merge.
	s, l := newLiveOver(t, docs, LiveConfig{SealPostings: 16, ManualCompact: true})

	fresh := Build(s, tokenize.New())
	assertSameIndex(t, l.Snapshot(), fresh)

	// Folding everything must not change what queries see.
	l.Compact()
	assertSameIndex(t, l.Snapshot(), fresh)
	if snap := l.Snapshot(); snap.live() {
		t.Fatal("fully compacted, mutation-free snapshot should be flat")
	}
}

func TestLiveSnapshotCachedPerGeneration(t *testing.T) {
	s, l := newLiveOver(t, []string{`<d><t>one two</t></d>`}, LiveConfig{ManualCompact: true})
	s1, s2 := l.Snapshot(), l.Snapshot()
	if s1 != s2 {
		t.Fatal("unchanged generation rebuilt the snapshot")
	}
	gen := l.Generation()
	addLiveDoc(t, s, l, "extra.xml", `<d><t>three</t></d>`)
	if l.Generation() == gen {
		t.Fatal("mutation did not advance the generation")
	}
	s3 := l.Snapshot()
	if s3 == s1 {
		t.Fatal("stale snapshot returned after mutation")
	}
	if s3.Generation() != l.Generation() {
		t.Fatalf("snapshot generation %d, live %d", s3.Generation(), l.Generation())
	}
}

func TestLiveDeleteAndReAdd(t *testing.T) {
	s, l := newLiveOver(t, []string{
		`<d><t>keep alpha</t></d>`,
		`<d><t>drop alpha</t></d>`,
	}, LiveConfig{ManualCompact: true})

	id := s.DocByName("doc001.xml").ID
	l.Delete(id)
	s.ReleaseName("doc001.xml")

	snap := l.Snapshot()
	for _, p := range snap.List("alpha").Materialize() {
		if p.Doc == id {
			t.Fatalf("tombstoned doc %d still visible", id)
		}
	}
	if got := len(snap.List("drop").Materialize()); got != 0 {
		t.Fatalf("term of a deleted doc yields %d postings", got)
	}
	if docs := snap.Docs(); len(docs) != 1 || docs[0].Name != "doc000.xml" {
		t.Fatalf("visible docs = %v, want only doc000.xml", docs)
	}

	// Re-add under the same name within the same generation stream: fresh
	// id, old one stays dead.
	nid := addLiveDoc(t, s, l, "doc001.xml", `<d><t>drop alpha back</t></d>`)
	if nid == id {
		t.Fatalf("re-added doc reused id %d", id)
	}
	snap = l.Snapshot()
	ps := snap.List("alpha").Materialize()
	if len(ps) != 2 || ps[0].Doc == id || ps[1].Doc == id {
		t.Fatalf("postings after re-add = %+v", ps)
	}
	if got := len(snap.List("back").Materialize()); got != 1 {
		t.Fatalf("re-added content invisible: %d postings for 'back'", got)
	}

	// Compaction physically drops the tombstoned postings; results are
	// unchanged.
	before := snap.List("alpha").Materialize()
	l.Compact()
	after := l.Snapshot().List("alpha").Materialize()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("compaction changed results: %+v -> %+v", before, after)
	}
	if l.DeadCount() != 1 {
		t.Fatalf("DeadCount = %d, want 1", l.DeadCount())
	}
}

func TestLiveBackgroundCompactionConverges(t *testing.T) {
	var docs []string
	for i := 0; i < 200; i++ {
		docs = append(docs, fmt.Sprintf(`<d><t>bulk w%d</t></d>`, i%11))
	}
	s, l := newLiveOver(t, docs, LiveConfig{SealPostings: 8, MaxSegments: 2})
	l.WaitCompaction()
	fresh := Build(s, tokenize.New())
	assertSameIndex(t, l.Snapshot(), fresh)
}

func TestLiveIndexDocFailureTombstonesDoc(t *testing.T) {
	s := storage.NewStore()
	l, err := NewLive(s, tokenize.New(), LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.AddTree("bad.xml", mustParse(`<d><t>qq rr</t><t>qq</t></d>`))
	if err != nil {
		t.Fatal(err)
	}
	corruptStarts(t, s.Doc(id))
	if err := l.IndexDoc(s.Doc(id)); !errors.Is(err, ErrPostingOrder) {
		t.Fatalf("IndexDoc err = %v, want ErrPostingOrder", err)
	}
	if !l.IsDead(id) {
		t.Fatal("half-indexed document was not tombstoned")
	}
	if got := len(l.Snapshot().List("qq").Materialize()); got != 0 {
		t.Fatalf("half-indexed doc leaked %d postings", got)
	}
}

func TestLiveFromIndexAdoptsFlatBase(t *testing.T) {
	s, idx := buildIndex(t, map[string]string{
		"a.xml": `<a><b>seed text</b></a>`,
	})
	l := LiveFromIndex(idx, LiveConfig{ManualCompact: true})
	if l.Snapshot() != idx {
		t.Fatal("adopted index should be the generation-0 snapshot")
	}
	addLiveDoc(t, s, l, "b.xml", `<a><b>more text</b></a>`)
	if got := l.Snapshot().TermFreq("text"); got != 2 {
		t.Fatalf("TermFreq(text) = %d after incremental add, want 2", got)
	}
	assertSameIndex(t, l.Snapshot(), Build(s, tokenize.New()))
}
