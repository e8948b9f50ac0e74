// Similarity join: the paper's Query 3 in the extended-XQuery join shape —
// find relevant components in articles.xml (Pick choosing their
// granularity), and for articles containing them, find reviews from
// reviews.xml whose titles are similar. The join condition itself is
// scored (ScoreSim counts shared title words), and the final score
// combines the similarity with the component's relevance through ScoreBar
// (Fig. 9), as the scored pattern tree of Fig. 4 prescribes.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/fixture"
	"repro/internal/shard"
	"repro/internal/xmltree"
)

const query3 = `
For $a in document("articles.xml")//article[/author/sname/text()="Doe"]
For $b in document("reviews.xml")//review
Let $sim := ScoreSim($a/article-title, $b/title)
Where $sim > 1
For $d in $a/descendant-or-self::*
Score $d using ScoreFoo($d, {"search engine"}, {"internet", "information retrieval"})
Pick $d using PickFoo($d)
Score $r using ScoreBar($sim, $d)
Return <tix_prod_root><score>$r/@score</score>{ $d }{ $b }</tix_prod_root>
Sortby(score)
`

func main() {
	d := shard.New(shard.Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		log.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		log.Fatal(err)
	}

	results, err := d.QueryContext(context.Background(), query3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d joined result(s), best first:\n", len(results))
	for i, r := range results {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(results)-5)
			break
		}
		// Where $sim > 1 keeps only reviews sharing title words.
		fmt.Printf("\n#%d combined=%.2f (component=%.2f, title-sim=%.0f)\n   review: %q\n   component <%s>:\n",
			i+1, r.Score, r.Score-r.Sim, r.Sim, r.Right.FirstTag("title").AllText(), r.Node.Tag)
		if r.Node.Tag == "p" {
			fmt.Printf("   %s\n", r.Node.AllText())
		} else {
			fmt.Print(xmltree.XMLString(r.Node))
		}
	}
}
