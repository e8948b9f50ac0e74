// Phrase search: PhraseFinder over a generated corpus. The example plants
// a control phrase at a known frequency, finds it with the offset-aware
// PhraseFinder access method (Sec. 5.1.2), cross-checks against the Comp3
// composite baseline, and shows how phrase matches feed TermJoin as a
// pseudo-term so whole phrases participate in relevance scoring.
package main

import (
	"fmt"
	"log"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/scoring"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

func main() {
	// A corpus with "vector space" planted 80 times as an adjacent phrase
	// (each term also occurs alone).
	cfg := synth.DefaultConfig()
	cfg.Articles = 120
	cfg.Seed = 7
	cfg.ControlTerms = map[string]int{"vector": 200, "space": 150}
	cfg.Phrases = []synth.PhraseSpec{{T1: "vector", T2: "space", Together: 80}}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	store := storage.NewStore()
	if _, err := store.AddTree("corpus.xml", corpus.Root); err != nil {
		log.Fatal(err)
	}
	idx := index.Build(store, tokenize.New())
	fmt.Printf("corpus: %d nodes, vector=%d space=%d occurrences\n",
		store.NumNodes(), idx.TermFreq("vector"), idx.TermFreq("space"))

	// PhraseFinder: offsets verified during the posting intersection.
	pf := &exec.PhraseFinder{Index: idx, Phrase: []string{"vector", "space"}}
	matches, err := exec.CollectPhrase(pf.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PhraseFinder: %d occurrences of \"vector space\"\n", len(matches))

	// The composite baseline re-fetches candidate text; same answer, more
	// store traffic.
	acc := storage.NewAccessor(store)
	c3 := &exec.Comp3{Index: idx, Acc: acc, Phrase: []string{"vector", "space"}}
	m3, err := exec.CollectPhrase(c3.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Comp3:        %d occurrences, store traffic: %s\n", len(m3), acc.Stats.String())

	// Feed the phrase into TermJoin as a pseudo-term: every element is
	// scored by how many whole-phrase occurrences its subtree contains.
	tj := &exec.TermJoin{
		Index: idx,
		Acc:   storage.NewAccessor(store),
		Query: exec.TermQuery{
			Terms:  []string{"vector space"},
			Lists:  []index.List{exec.PhrasePostings(matches)},
			Scorer: exec.DefaultScorer{SimpleFn: scoring.SimpleScorer{}},
		},
	}
	topk := exec.NewTopK(5)
	if err := tj.Run(topk.Emit()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop elements by phrase count:")
	for i, n := range topk.Results() {
		doc := store.Doc(n.Doc)
		fmt.Printf("%2d. <%s> ord=%d phrase-count=%.0f\n",
			i+1, store.Tags.Name(doc.Nodes[n.Ord].Tag), n.Ord, n.Score)
	}
}
