package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/db"
)

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	names, roots := corpusDocs(t, 7, 42)
	for _, n := range []int{1, 3, 8} {
		s := newSharded(t, n, ByHash, names, roots)
		s.Warm()
		want, err := s.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("shards=%d: save: %v", n, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d: load: %v", n, err)
		}
		if loaded.Shards() != n || loaded.Strategy() != ByHash {
			t.Fatalf("shards=%d: loaded layout = %d/%s", n, loaded.Shards(), loaded.Strategy())
		}
		if loaded.DocumentCount() != len(names) {
			t.Fatalf("shards=%d: loaded %d documents, want %d", n, loaded.DocumentCount(), len(names))
		}
		for gid, name := range names {
			if got := loaded.names[gid]; got != name {
				t.Fatalf("shards=%d: doc %d = %q, want %q", n, gid, got, name)
			}
		}
		got, err := loaded.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after round trip", got, want)
	}
}

func TestShardedLoadRejectsCorruption(t *testing.T) {
	names, roots := corpusDocs(t, 5, 9)
	s := newSharded(t, 3, ByHash, names, roots)
	s.Warm()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Any single flipped bit anywhere in the payload or trailer must be
	// rejected (sampled positions across the whole file).
	for _, pos := range []int{9, len(good) / 4, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("flipped bit at %d of %d accepted", pos, len(bad))
		}
	}
	// Truncations at the container level and inside a segment.
	for _, cut := range []int{4, len(good) / 2, len(good) - 3} {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(good))
		}
	}
	// Trailing garbage after the trailer.
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 'x'))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("trailing garbage: err = %v, want ErrCorruptSnapshot", err)
	}
	// A legacy single-store snapshot is not a sharded container.
	var legacy bytes.Buffer
	if err := s.Segment(0).Save(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(legacy.Bytes())); err == nil {
		t.Error("legacy snapshot accepted by sharded Load")
	}
	// The intact file still loads (the corruption loop must not have
	// depended on shared state).
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
}

func TestOpenFileSniffsBothFormats(t *testing.T) {
	dir := t.TempDir()
	names, roots := corpusDocs(t, 5, 4)

	shardedPath := filepath.Join(dir, "sharded.tix")
	s := newSharded(t, 2, RoundRobin, names, roots)
	s.Warm()
	if err := s.SaveFile(shardedPath); err != nil {
		t.Fatal(err)
	}

	// A legacy single-store file: one segment snapshot on its own.
	legacyPath := filepath.Join(dir, "legacy.tix")
	mono := newOracle(t, names, roots)
	mono.Index()
	var legacy bytes.Buffer
	if err := mono.Save(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if ok, err := IsShardedFile(shardedPath); err != nil || !ok {
		t.Fatalf("IsShardedFile(sharded) = %v, %v", ok, err)
	}
	if ok, err := IsShardedFile(legacyPath); err != nil || ok {
		t.Fatalf("IsShardedFile(legacy) = %v, %v", ok, err)
	}

	want, err := mono.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{shardedPath, legacyPath} {
		d, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", path, err)
		}
		got, err := d.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "OpenFile "+filepath.Base(path), got, want)
	}

	// The oldest format, TIXDB1, still opens.
	v1, err := OpenFile(filepath.Join("..", "db", "testdata", "fig1.v1.tix"))
	if err != nil {
		t.Fatalf("OpenFile(v1): %v", err)
	}
	if v1.DocumentCount() != 2 || v1.DocName(0) != "articles.xml" {
		t.Fatalf("v1 file opened with %d documents, first %q", v1.DocumentCount(), v1.DocName(0))
	}

	// Sniffing tolerates short files (reports not-sharded, not an error).
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsShardedFile(short); err != nil || ok {
		t.Fatalf("IsShardedFile(short) = %v, %v", ok, err)
	}
}

// TestSaveFileFailureKeepsPreviousSnapshot pins crash-safe saving: a save
// that fails after it has started writing (here on a burned id slot,
// after the header) leaves the previous snapshot byte-identical and
// openable, and no temporary file behind.
func TestSaveFileFailureKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.tix")
	names, roots := corpusDocs(t, 5, 4)
	s := newSharded(t, 2, RoundRobin, names, roots)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BurnDocID(); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err == nil {
		t.Fatal("SaveFile over a burned id slot succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the previous snapshot: %d bytes, was %d", len(after), len(before))
	}
	if _, err := OpenFile(path); err != nil {
		t.Fatalf("previous snapshot no longer opens: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var left []string
		for _, e := range entries {
			left = append(left, e.Name())
		}
		t.Fatalf("directory holds %v, want only db.tix", left)
	}
}

func TestReshardPreservesResults(t *testing.T) {
	names, roots := corpusDocs(t, 6, 13)
	s := newSharded(t, 2, ByHash, names, roots)
	want, err := s.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 8} {
		r, err := s.Reshard(n, RoundRobin)
		if err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		if r.Shards() != n || r.Strategy() != RoundRobin {
			t.Fatalf("resharded layout = %d/%s", r.Shards(), r.Strategy())
		}
		if r.DocumentCount() != s.DocumentCount() {
			t.Fatalf("reshard to %d: %d documents, want %d", n, r.DocumentCount(), s.DocumentCount())
		}
		got, err := r.TermSearch([]string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after reshard", got, want)
	}
}

func TestWrapExposesMonolithicDB(t *testing.T) {
	names, roots := corpusDocs(t, 4, 2)
	mono := newOracle(t, names, roots)
	w := Wrap(mono)
	if w.Shards() != 1 || w.DocumentCount() != len(names) {
		t.Fatalf("wrap layout: shards=%d docs=%d", w.Shards(), w.DocumentCount())
	}
	want, err := mono.TermSearchContext(context.Background(), []string{"ctla"}, db.TermSearchOptions{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.TermSearch([]string{"ctla"}, db.TermSearchOptions{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "wrapped", got, want)
	// The facade rejects duplicate names just like db does.
	if err := w.LoadTree(names[0], roots[0]); err == nil {
		t.Error("duplicate load accepted")
	}
}

// TestLoadAllocatesLinearly is the machine-independent guard on snapshot
// open cost: doubling the corpus must roughly double the bytes Load
// allocates. A placement check that copies a segment's document table per
// document allocates quadratically — 4× per doubling.
func TestLoadAllocatesLinearly(t *testing.T) {
	loadBytes := func(docs int) uint64 {
		s := New(Options{Shards: 2, Strategy: RoundRobin})
		for i := 0; i < docs; i++ {
			if err := s.LoadString(fmt.Sprintf("d%05d.xml", i), fmt.Sprintf(`<d><t>w%d x</t></d>`, i%13)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := loadBytes(2000), loadBytes(4000)
	t.Logf("Load allocated %d B for 2000 documents, %d B for 4000", small, large)
	if large >= 3*small {
		t.Fatalf("Load allocated %d B for 4000 documents, %d B for 2000: %.2f×, want < 3×",
			large, small, float64(large)/float64(small))
	}
}
