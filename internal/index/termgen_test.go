package index

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tokenize"
)

func TestTermsGenerationMovesOnlyForTouchedTerms(t *testing.T) {
	// The documents are in the base segment NewLive builds, which no
	// write has touched.
	s := storage.NewStore()
	for i, src := range []string{`<d><t>alpha beta</t></d>`, `<d><t>gamma</t></d>`} {
		if _, err := s.AddTree(fmt.Sprintf("doc%03d.xml", i), mustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLive(s, tokenize.New(), LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"alpha", "beta", "gamma", "absent"} {
		if g := l.TermsGeneration([]string{term}); g != 0 {
			t.Fatalf("TermsGeneration(%q) = %d before any write, want 0", term, g)
		}
	}

	addLiveDoc(t, s, l, "more.xml", `<d><t>beta delta</t></d>`)
	g := l.Generation()
	want := map[string]uint64{"alpha": 0, "beta": g, "gamma": 0, "delta": g, "absent": 0}
	for term, w := range want {
		if got := l.TermsGeneration([]string{term}); got != w {
			t.Errorf("after add: TermsGeneration(%q) = %d, want %d", term, got, w)
		}
	}
	if got := l.TermsGeneration([]string{"alpha", "BETA", "absent"}); got != g {
		t.Errorf("TermsGeneration(alpha, BETA, absent) = %d, want the maximum %d", got, g)
	}

	// A delete moves every term of the removed document, and no other.
	l.Delete(s.DocByName("doc001.xml").ID)
	d := l.Generation()
	want = map[string]uint64{"alpha": 0, "beta": g, "gamma": d, "delta": g}
	for term, w := range want {
		if got := l.TermsGeneration([]string{term}); got != w {
			t.Errorf("after delete: TermsGeneration(%q) = %d, want %d", term, got, w)
		}
	}
}

func TestTermsGenerationNormalizesAsQueries(t *testing.T) {
	s := storage.NewStore()
	l, err := NewLive(s, tokenize.NewStemming(), LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	addLiveDoc(t, s, l, "a.xml", `<d><t>Search Engines</t></d>`)
	g := l.Generation()
	for _, term := range []string{"engine", "engines", "ENGINES", "search"} {
		if got := l.TermsGeneration([]string{term}); got != g {
			t.Errorf("TermsGeneration(%q) = %d, want %d", term, got, g)
		}
	}
}

func TestTermsGenerationCompactLeavesItUnchanged(t *testing.T) {
	var docs []string
	for i := 0; i < 40; i++ {
		docs = append(docs, fmt.Sprintf(`<d><t>tix w%d shared</t><t>again w%d</t></d>`, i%7, i%5))
	}
	s, l := newLiveOver(t, docs, LiveConfig{SealPostings: 16, ManualCompact: true})
	l.Delete(s.DocByName("doc003.xml").ID)
	terms := l.Snapshot().TermsByFreq()
	before := make(map[string]uint64, len(terms))
	for _, term := range terms {
		before[term] = l.TermsGeneration([]string{term})
		if before[term] == 0 {
			t.Fatalf("term %q indexed by IndexDoc has generation 0", term)
		}
	}
	gen := l.Generation()
	l.FoldSealed()
	l.Compact()
	if l.Generation() == gen {
		t.Fatal("the folds did not advance the live generation; the test checks nothing")
	}
	for _, term := range terms {
		if got := l.TermsGeneration([]string{term}); got != before[term] {
			t.Errorf("compaction moved TermsGeneration(%q): %d -> %d", term, before[term], got)
		}
	}
}

func TestTermsGenerationIndexDocErrorBumpsReachedTerms(t *testing.T) {
	s := storage.NewStore()
	l, err := NewLive(s, tokenize.New(), LiveConfig{ManualCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	// The second text node's "qq" lands before the first node's postings,
	// so ingestion stops there, after reaching qq and rr.
	id, err := s.AddTree("bad.xml", mustParse(`<d><t>qq rr</t><t>qq ss</t></d>`))
	if err != nil {
		t.Fatal(err)
	}
	corruptStarts(t, s.Doc(id))
	if err := l.IndexDoc(s.Doc(id)); !errors.Is(err, ErrPostingOrder) {
		t.Fatalf("IndexDoc err = %v, want ErrPostingOrder", err)
	}
	g := l.Generation()
	for term, want := range map[string]uint64{"qq": g, "rr": g, "ss": 0} {
		if got := l.TermsGeneration([]string{term}); got != want {
			t.Errorf("TermsGeneration(%q) = %d after the failed IndexDoc, want %d", term, got, want)
		}
	}
}

func TestTermsGenerationAllocatesNothing(t *testing.T) {
	s, l := newLiveOver(t, []string{`<d><t>alpha beta</t></d>`}, LiveConfig{ManualCompact: true})
	addLiveDoc(t, s, l, "more.xml", `<d><t>alpha gamma</t></d>`)
	terms := []string{"alpha", "gamma", "absent"}
	if n := testing.AllocsPerRun(100, func() { l.TermsGeneration(terms) }); n != 0 {
		t.Fatalf("TermsGeneration allocates %.0f times per call, want 0", n)
	}
}

// TestTermsGenerationNeverAheadOfSnapshot checks the ordering rule the
// result cache's coherence rests on: a reader that observes a term
// generation and then takes a snapshot gets one at least that new, while
// a writer adds, deletes and compacts. Run under -race by `make stress`.
func TestTermsGenerationNeverAheadOfSnapshot(t *testing.T) {
	s, l := newLiveOver(t, []string{`<d><t>alpha beta</t></d>`}, LiveConfig{SealPostings: 64, ManualCompact: true})
	terms := []string{"alpha", "beta", "w3"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tg := l.TermsGeneration(terms)
				if sg := l.Snapshot().Generation(); sg < tg {
					select {
					case fail <- fmt.Sprintf("snapshot generation %d behind term generation %d", sg, tg):
					default:
					}
					return
				}
			}
		}()
	}
	var live []storage.DocID
	for i := 0; i < 600; i++ {
		switch {
		case i%10 == 9:
			l.Compact()
		case i%3 == 2 && len(live) > 0:
			l.Delete(live[0])
			live = live[1:]
		default:
			id, err := s.AddTree(fmt.Sprintf("w%04d.xml", i), mustParse(fmt.Sprintf(`<d><t>alpha w%d</t><t>beta</t></d>`, i%5)))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.IndexDoc(s.Doc(id)); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
