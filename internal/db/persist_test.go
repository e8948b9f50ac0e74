package db

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := newFixtureDB(t)
	d.Index() // force index construction so it is persisted

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Same statistics.
	if got, want := d2.Stats(), d.Stats(); got != want {
		t.Errorf("stats after reload = %+v, want %+v", got, want)
	}
	// Same postings for a sample of terms.
	for _, term := range []string{"search", "engine", "internet", "doe"} {
		if !reflect.DeepEqual(d2.Index().List(term).Materialize(), d.Index().List(term).Materialize()) {
			t.Errorf("postings for %q differ after reload", term)
		}
	}
	// The reloaded database answers the paper's Query 2 identically.
	q := `
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score > 4 stop after 5`
	r1, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || len(r1) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Ord != r2[i].Ord || r1[i].Score != r2[i].Score {
			t.Errorf("result %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestSaveLoadWithoutIndex(t *testing.T) {
	d := New(Options{})
	if err := d.LoadString("a.xml", `<a>hello world</a>`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Index rebuilds lazily and matches.
	if d2.Index().TermFreq("hello") != 1 {
		t.Errorf("lazily rebuilt index wrong")
	}
}

func TestSaveLoadPreservesOptions(t *testing.T) {
	d := New(Options{Stopwords: []string{"the", "and"}})
	if err := d.LoadString("a.xml", `<a>the cat and hat</a>`); err != nil {
		t.Fatal(err)
	}
	d.Index()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Index().TermFreq("the") != 0 || d2.Index().TermFreq("cat") != 1 {
		t.Errorf("stopword option lost on reload")
	}
	// Stemming flag round-trips.
	ds := New(Options{Stemming: true})
	if err := ds.LoadString("a.xml", `<a>engines</a>`); err != nil {
		t.Fatal(err)
	}
	ds.Index()
	buf.Reset()
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ds2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Index().TermFreq("engine") != 1 {
		t.Errorf("stemming option lost on reload")
	}
}

func TestSaveFileLoadDBFile(t *testing.T) {
	d := newFixtureDB(t)
	d.Index()
	path := filepath.Join(t.TempDir(), "db.tix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats() != d.Stats() {
		t.Errorf("file round trip stats differ")
	}
	if _, err := LoadDBFile(filepath.Join(t.TempDir(), "missing.tix")); err == nil {
		t.Errorf("missing file should error")
	}
}

func TestLoadCorruption(t *testing.T) {
	d := newFixtureDB(t)
	d.Index()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	if _, err := Load(strings.NewReader("NOTADB!\n")); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Empty input.
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Errorf("empty input accepted")
	}
	// Truncations at various points must error, never panic.
	for _, cut := range []int{8, 20, len(full) / 4, len(full) / 2, len(full) - 3} {
		if cut >= len(full) {
			continue
		}
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Flipping a byte in the XML payload region either errors or yields a
	// database that still answers stats (no panic, no corruption crash).
	mut := append([]byte(nil), full...)
	mut[len(fileMagic)+30] ^= 0xFF
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("corrupted load panicked: %v", r)
			}
		}()
		_, _ = Load(bytes.NewReader(mut))
	}()
}
