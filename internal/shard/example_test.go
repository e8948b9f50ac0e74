package shard_test

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/shard"
)

func ExampleDB_TermSearchContext() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	results, err := d.TermSearchContext(context.Background(), []string{"information", "retrieval"}, db.TermSearchOptions{TopK: 2})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("<%s> %.0f\n", d.NameOf(r), r.Score)
	}
	// Output:
	// <article> 7
	// <chapter> 7
}

func ExampleDB_PhraseSearchContext() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		panic(err)
	}
	ms, err := d.PhraseSearchContext(context.Background(), []string{"information", "retrieval"})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ms), "occurrences")
	// Output: 3 occurrences
}
