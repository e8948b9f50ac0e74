package xq

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The `stop after K` contract, pinned for both query shapes: the result is
// the first K elements of a stable score-descending order of what the
// Threshold's V condition kept, so ties at the K-th score keep the element
// that came first in evaluation order (document order for the single-For
// shape). Sortby without stop after is the same stable order, untruncated;
// neither clause leaves evaluation order alone.

const (
	stopAfterSingle = `For $a in document("articles.xml")//article/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})`
	stopAfterJoin = `For $a in document("articles.xml")//article
		For $b in document("reviews.xml")//review
		Let $sim := ScoreSim($a/article-title, $b/title)
		For $d in $a/descendant-or-self::*
		Score $d using ScoreFoo($d, {"search engine"}, {"internet", "information retrieval"})`
	stopAfterPick     = ` Pick $a using PickFoo($a)`
	stopAfterJoinPick = ` Pick $d using PickFoo($d)
		Score $r using ScoreBar($sim, $d)`
)

// resultKey identifies one result, including the joined right element.
func resultKey(r Result) string {
	right := int32(-1)
	if r.Right != nil {
		right = r.Right.Ord
	}
	return fmt.Sprintf("%d/%d/%g/%g/%d", r.Doc, r.Ord, r.Score, r.Sim, right)
}

func resultKeys(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = resultKey(r)
	}
	return out
}

// stopAfterOracle applies the clauses to the results in evaluation order.
func stopAfterOracle(base []Result, sortBy bool, min float64, hasMin bool, k int, hasK bool) []Result {
	var out []Result
	for _, r := range base {
		if !hasMin || r.Score > min {
			out = append(out, r)
		}
	}
	if sortBy || hasK {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	}
	if hasK && len(out) > k {
		out = out[:k]
	}
	return out
}

func TestStopAfterSemantics(t *testing.T) {
	e := newEngine(t)
	shapes := []struct {
		name, src, v string
	}{
		{"single", stopAfterSingle, "a"},
		{"single+pick", stopAfterSingle + stopAfterPick, "a"},
		{"join", stopAfterJoin + stopAfterJoinPick, "r"},
	}
	for _, sh := range shapes {
		base, err := e.EvalString(sh.src)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if len(base) < 5 {
			t.Fatalf("%s: %d results, too few to exercise stop after", sh.name, len(base))
		}
		sawTie := false
		for _, sortBy := range []bool{false, true} {
			for _, th := range []struct {
				min    float64
				hasMin bool
			}{{0, false}, {1, true}} {
				for k := -1; k <= len(base)+2; k++ {
					hasK := k >= 0
					if !hasK && !sortBy && !th.hasMin {
						continue // no clause at all
					}
					var clauses strings.Builder
					if sortBy {
						clauses.WriteString(" Sortby(score)")
					}
					if th.hasMin || hasK {
						fmt.Fprintf(&clauses, " Threshold $%s/@score", sh.v)
						if th.hasMin {
							fmt.Fprintf(&clauses, " > %g", th.min)
						}
						if hasK {
							fmt.Fprintf(&clauses, " stop after %d", k)
						}
					}
					got, err := e.EvalString(sh.src + clauses.String())
					if err != nil {
						t.Fatalf("%s%s: %v", sh.name, clauses.String(), err)
					}
					want := stopAfterOracle(base, sortBy, th.min, th.hasMin, k, hasK)
					if g, w := strings.Join(resultKeys(got), " "), strings.Join(resultKeys(want), " "); g != w {
						t.Errorf("%s%s:\n got %s\nwant %s", sh.name, clauses.String(), g, w)
					}
					if all := stopAfterOracle(base, true, th.min, th.hasMin, 0, false); hasK && k > 0 && k < len(all) && all[k-1].Score == all[k].Score {
						sawTie = true
					}
				}
			}
		}
		if !sawTie {
			t.Errorf("%s: no case ties at the K-th score", sh.name)
		}
	}
}

// TestStopAfterTieKeepsEarliest spells one tie out: Query 1's picked set is
// the chapter (5.0), the section-title and first paragraph (0.8 each) and
// the last two paragraphs (1.4 each); stop after 4 must keep the
// section-title, the earlier of the two 0.8 elements in document order.
func TestStopAfterTieKeepsEarliest(t *testing.T) {
	e := newEngine(t)
	for _, clauses := range []string{" Sortby(score) Threshold $a/@score stop after 4", " Threshold $a/@score stop after 4"} {
		got, err := e.EvalString(stopAfterSingle + stopAfterPick + clauses)
		if err != nil {
			t.Fatal(err)
		}
		var tags []string
		for _, r := range got {
			tags = append(tags, fmt.Sprintf("%s:%g", r.Node.Tag, r.Score))
		}
		if g, w := strings.Join(tags, " "), "chapter:5 p:1.4 p:1.4 section-title:0.8"; g != w {
			t.Errorf("%s: got %s, want %s", clauses, g, w)
		}
	}
}
