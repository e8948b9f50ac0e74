package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// FuzzLoad drives the snapshot loader over corrupted byte streams. Load
// must return a database or an error: never panic, hang, or allocate
// unboundedly from a lying length prefix, and Stats on a loaded database
// must not panic. Seeds cover a one-shard save, a three-shard save taken
// after deletes, their prefixes, a file in the retired TIXSHD1 format
// (which Load must reject), a save whose index section is mutated and
// re-sealed with a correct trailer, so that block validation rejects it
// rather than the checksum, the bare magic, empty input, and a save with
// stopwords and no index section: mutation starts from structurally
// interesting inputs.
func FuzzLoad(f *testing.F) {
	one := fixtureDB(f, 1)
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
		valid := saved(f, d)
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(fileMagic)+3])
	}
	f.Add(legacySnapshot())
	valid := saved(f, one)
	mut := bytes.Clone(valid[:len(valid)-trailerLen])
	mut[len(mut)*9/10] ^= 0xFF
	f.Add(reseal(mut))
	f.Add([]byte(fileMagic))
	f.Add([]byte{})
	cold := New(Options{Stopwords: []string{"the", "and"}, Metrics: metrics.NewRegistry()})
	if err := cold.LoadString("a.xml", "<a>the cat and <b>the hat</b></a>"); err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, cold))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if d == nil {
			t.Fatal("Load returned neither a database nor an error")
		}
		d.Stats()
	})
}
