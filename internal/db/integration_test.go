package db

import (
	"context"
	"testing"

	"repro/internal/synth"
)

// TestSynthCorpusEndToEnd loads a mid-sized synthetic corpus and validates
// the full query pipeline against naive recomputation: scores from the
// TermJoin-backed engine must equal ScoreFoo evaluated by scanning each
// result's subtree text, and Pick's parent/child exclusion must hold.
func TestSynthCorpusEndToEnd(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Articles = 60
	cfg.Seed = 77
	cfg.ControlTerms = map[string]int{"needle": 120, "haystack": 90, "straw": 40}
	cfg.Phrases = []synth.PhraseSpec{{T1: "needle", T2: "haystack", Together: 30}}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Options{})
	if err := d.LoadTree("corpus.xml", corpus.Root); err != nil {
		t.Fatal(err)
	}

	results, err := d.QueryContext(context.Background(), `
		For $a in document("corpus.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"needle haystack"}, {"straw"})
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	tok := d.Tokenizer()
	for i, r := range results {
		if i >= 200 {
			break // spot-check a prefix; the list is score-ordered
		}
		text := r.Node.AllText()
		want := 0.8*float64(tok.CountPhrase(text, []string{"needle", "haystack"})) +
			0.6*float64(tok.Count(text, "straw"))
		// Engine phrase matching is per text node; AllText-based naive
		// counting can only differ by phrase matches spanning node
		// boundaries, which the generator never plants. Scores must agree.
		if diff := r.Score - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("result %d (<%s>): engine score %v, naive %v", i, r.Node.Tag, r.Score, want)
		}
	}

	// With Pick, no returned component may contain another.
	picked, err := d.QueryContext(context.Background(), `
		For $a in document("corpus.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"needle haystack"}, {"straw"})
		Pick $a using PickFoo($a, 0.8)
		Sortby(score)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) == 0 {
		t.Fatal("pick returned nothing")
	}
	if len(picked) >= len(results) {
		t.Errorf("pick did not reduce results: %d vs %d", len(picked), len(results))
	}
	type span struct{ start, end uint32 }
	var spans []span
	for _, r := range picked {
		spans = append(spans, span{r.Node.Start, r.Node.End})
	}
	adjacentLevels := 0
	for i, a := range spans {
		for j, b := range spans {
			if i == j {
				continue
			}
			if a.start < b.start && b.end <= a.end {
				// Containment among picked components is allowed only for
				// non-adjacent levels (grandparent/grandchild); direct
				// parent/child pairs must never both be returned.
				if picked[i].Node.Level+1 == picked[j].Node.Level {
					adjacentLevels++
				}
			}
		}
	}
	if adjacentLevels > 0 {
		t.Errorf("%d direct parent/child pairs in the picked set", adjacentLevels)
	}
}

// TestSynthCorpusPersistRoundTrip saves and reloads a synthetic-corpus
// segment and checks that a ranked query returns identical results.
func TestSynthCorpusPersistRoundTrip(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Articles = 25
	cfg.Seed = 78
	cfg.ControlTerms = map[string]int{"needle": 50}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Options{})
	if err := d.LoadTree("corpus.xml", corpus.Root); err != nil {
		t.Fatal(err)
	}
	d.Index()
	sameQuery(t, d, roundTrip(t, d, Options{}), `
		For $a in document("corpus.xml")//sec/descendant-or-self::*
		Score $a using ScoreFoo($a, {"needle"}, {})
		Sortby(score)
		Threshold $a/@score > 0 stop after 20`)
}
