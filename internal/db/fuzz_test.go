package db

import (
	"bytes"
	"testing"

	"repro/internal/fixture"
)

// FuzzLoad drives the snapshot loader over corrupted byte streams. Load
// must either return a database or an error — never panic, hang, or
// allocate unboundedly from a lying length prefix. Seeds cover the valid
// snapshot, its prefixes, a mutated index section re-sealed with a correct
// trailer (so the checksum does not stop the load before block
// validation), the bare magic, a snapshot with stopwords and no index
// section, and one saved after a delete (its index rebuilt densely), so
// mutation starts from structurally interesting inputs.
func FuzzLoad(f *testing.F) {
	d := New(Options{Stemming: true})
	if err := d.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		f.Fatal(err)
	}
	if err := d.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		f.Fatal(err)
	}
	d.Index()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := bytes.Clone(buf.Bytes())
	mut := bytes.Clone(valid[:len(valid)-trailerLen])
	mut[len(mut)*9/10] ^= 0xFF
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(reseal(mut))
	f.Add([]byte(fileMagic))
	f.Add([]byte{})
	sw := New(Options{Stopwords: []string{"the", "and"}})
	if err := sw.LoadString("a.xml", "<a>the cat and <b>the hat</b></a>"); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := sw.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	if err := d.Delete("articles.xml"); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err == nil && db == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
	})
}
