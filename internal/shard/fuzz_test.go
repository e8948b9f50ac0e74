package shard

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fixture"
	"repro/internal/metrics"
)

// FuzzLoad drives the sharded container loader — the only snapshot format
// the binaries open — over corrupted byte streams. Load must return a
// database or an error: never panic, hang, or allocate unboundedly from a
// lying length prefix, and Stats on a loaded database must not panic.
// Seeds cover a one-shard save, a three-shard save taken after deletes,
// their prefixes and a bare segment snapshot (which Load must reject), so
// mutation starts from structurally interesting inputs.
func FuzzLoad(f *testing.F) {
	one := New(Options{Stemming: true, Metrics: metrics.NewRegistry()})
	if err := one.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		f.Fatal(err)
	}
	if err := one.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		f.Fatal(err)
	}
	three := New(Options{Shards: 3, Strategy: RoundRobin, Metrics: metrics.NewRegistry()})
	for i := 0; i < 5; i++ {
		if err := three.LoadString(fmt.Sprintf("d%d.xml", i), fmt.Sprintf("<a><b>term%d shared</b><c>x</c></a>", i)); err != nil {
			f.Fatal(err)
		}
	}
	three.Warm()
	for _, name := range []string{"d1.xml", "d3.xml"} {
		if err := three.Delete(name); err != nil {
			f.Fatal(err)
		}
	}
	for _, d := range []*DB{one, three} {
		d.Warm()
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(fileMagic)+3])
	}
	var seg bytes.Buffer
	if err := one.Segment(0).Save(&seg); err != nil {
		f.Fatal(err)
	}
	f.Add(seg.Bytes())
	f.Add([]byte(fileMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
		d.Stats()
	})
}
