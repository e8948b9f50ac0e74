package bench

import (
	"repro/internal/db"
	"repro/internal/synth"
)

// Query1Src is the paper's Query 1 shape (Score → Pick → Threshold … stop
// after, Sec. 4) over the planted phrase and secondary term of Query1DB's
// articles.xml — the request the wire-cold benchmark sends to /query. The
// count gate pins its results, store traffic and allocations, and
// BenchmarkQuery1 (internal/server) times its evaluation and reply.
const Query1Src = `For $a in document("articles.xml")//article/descendant-or-self::*
Score $a using ScoreFoo($a, {"xqa xqb"}, {"xqc"})
Pick $a using PickFoo($a)
Sortby(score)
Threshold $a/@score > 1 stop after 5`

// Query1DB loads a 300-article synthetic document (seed 1) as articles.xml
// into a fresh segment, planted as the wire-cold benchmark's articles.xml
// is: xqa, xqb and xqc each occur 900 times, and 600 of the xqa
// occurrences are directly followed by xqb.
func Query1DB() (*db.DB, error) {
	const articles = 300
	cfg := synth.DefaultConfig()
	cfg.Articles = articles
	cfg.Seed = 1
	cfg.ControlTerms = map[string]int{"xqa": 3 * articles, "xqb": 3 * articles, "xqc": 3 * articles}
	cfg.Phrases = []synth.PhraseSpec{{T1: "xqa", T2: "xqb", Together: 2 * articles}}
	c, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d := db.New(db.Options{})
	if err := d.LoadTree("articles.xml", c.Root); err != nil {
		return nil, err
	}
	return d, nil
}
