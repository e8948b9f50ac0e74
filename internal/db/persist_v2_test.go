package db

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/postings"
	"repro/internal/synth"
)

// The v2 snapshot persists the block-compressed postings verbatim; v1 is
// load-only, pinned by a file a v1 writer produced from the Figure 1
// database (Stemming on, index built). These tests pin that compatibility
// and the v2-specific corruption defenses.

// v1Fixture is a TIXDB1 snapshot of newFixtureDB.
const v1Fixture = "testdata/fig1.v1.tix"

// loadV1Fixture loads the committed v1 snapshot.
func loadV1Fixture(t *testing.T) *DB {
	t.Helper()
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(fileMagic)) {
		t.Fatalf("%s has magic %q, want %q", v1Fixture, data[:len(fileMagic)], fileMagic)
	}
	d, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load of v1 snapshot: %v", err)
	}
	return d
}

func TestSaveWritesV2Magic(t *testing.T) {
	data := savedFixture(t)
	if !bytes.HasPrefix(data, []byte(fileMagicV2)) {
		t.Fatalf("Save wrote magic %q, want %q", data[:len(fileMagicV2)], fileMagicV2)
	}
}

func TestSaveV1LoadCompat(t *testing.T) {
	d := newFixtureDB(t)
	d2 := loadV1Fixture(t)
	if got, want := d2.Stats(), d.Stats(); got != want {
		t.Errorf("v1 reload stats = %+v, want %+v", got, want)
	}
	for _, term := range []string{"search", "engine", "internet", "doe"} {
		if !reflect.DeepEqual(d2.Index().Postings(term), d.Index().Postings(term)) {
			t.Errorf("postings for %q differ after v1 reload", term)
		}
	}
}

// synthDB builds a database over a mid-sized synthetic corpus — long
// enough posting lists that block compression actually pays, unlike the
// tiny two-document fixture.
func synthDB(t *testing.T) *DB {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Articles = 30
	cfg.Seed = 61
	cfg.ControlTerms = map[string]int{"needle": 900, "haystack": 400}
	corpus, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Options{})
	if err := d.LoadTree("corpus.xml", corpus.Root); err != nil {
		t.Fatal(err)
	}
	d.Index()
	return d
}

func TestV1AndV2SnapshotsLoadIdentically(t *testing.T) {
	d1 := loadV1Fixture(t)
	d2, err := Load(bytes.NewReader(savedFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := d1.Index().TermsByFreq(), d2.Index().TermsByFreq()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("vocabularies differ between v1 and v2 loads")
	}
	for _, term := range t1 {
		if !reflect.DeepEqual(d1.Index().Postings(term), d2.Index().Postings(term)) {
			t.Errorf("postings for %q differ between v1 and v2 loads", term)
		}
	}
	// Re-saving the v1 load writes v2, byte-identical to the v2 save.
	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), savedFixture(t)) {
		t.Error("v1 load re-saved differs from the v2 snapshot of the same corpus")
	}
}

func TestV2ReloadKeepsCompression(t *testing.T) {
	d := synthDB(t)
	want := d.Index().MemStats()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := d2.Index().MemStats()
	if got != want {
		t.Errorf("reloaded MemStats = %+v, want %+v", got, want)
	}
	// The acceptance bar: block compression at least halves the postings
	// memory against the raw 16-byte representation.
	if got.Ratio < 2 {
		t.Errorf("reloaded compression ratio %.2f, want >= 2", got.Ratio)
	}
}

// TestV2TrailerlessCorruption strips the integrity trailer (the legacy
// acceptance) and then damages the postings section near the end of the
// payload: without a checksum to catch it, the per-block validation in
// NewBlockList is the defense, so every flip must either error (never
// panic) or produce a database that passed validation cleanly.
func TestV2TrailerlessCorruption(t *testing.T) {
	data := savedFixture(t)
	legacy := data[:len(data)-trailerLen]
	if _, err := Load(bytes.NewReader(legacy)); err != nil {
		t.Fatalf("trailerless v2 snapshot rejected: %v", err)
	}
	rejected := 0
	// The index section sits at the tail of the payload; walk flips across
	// it.
	start := len(legacy) * 3 / 4
	for at := start; at < len(legacy); at += 7 {
		mut := bytes.Clone(legacy)
		mut[at] ^= 0xFF
		db, err := Load(bytes.NewReader(mut))
		if err == nil {
			if db == nil {
				t.Fatalf("flip at %d: no database and no error", at)
			}
			continue
		}
		rejected++
	}
	if rejected == 0 {
		t.Error("no tail-section flip was rejected; block validation appears inert")
	}
}

// TestV2TrailerlessTruncation: cutting a trailerless v2 file inside the
// index section must fail block validation (there is no trailer left to
// catch it).
func TestV2TrailerlessTruncation(t *testing.T) {
	data := savedFixture(t)
	legacy := data[:len(data)-trailerLen]
	for _, cut := range []int{len(legacy) - 2, len(legacy) - 9, len(legacy) * 9 / 10} {
		_, err := Load(bytes.NewReader(legacy[:cut]))
		if err == nil {
			t.Errorf("trailerless truncation at %d of %d accepted", cut, len(legacy))
		}
	}
}

// TestV2CorruptSkipMetadata mangles bytes across the index tail — term
// headers, per-block metadata varints, block payloads — of a trailerless
// snapshot. Rejections must be typed: either the loader's structural
// checks (ErrCorruptSnapshot) or the block validator (postings.ErrCorrupt,
// wrapped in ErrCorruptSnapshot), and the block validator must fire for at
// least one mutation.
func TestV2CorruptSkipMetadata(t *testing.T) {
	data := savedFixture(t)
	legacy := data[:len(data)-trailerLen]
	sawBlockErr := false
	for at := len(legacy) / 2; at < len(legacy); at++ {
		mut := bytes.Clone(legacy)
		mut[at] = 0xFF // force a multi-byte/overflowing varint mid-structure
		_, err := Load(bytes.NewReader(mut))
		if err != nil && errors.Is(err, postings.ErrCorrupt) {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flip at %d: block error %v not wrapped in ErrCorruptSnapshot", at, err)
			}
			sawBlockErr = true
		}
	}
	if !sawBlockErr {
		t.Error("no corruption surfaced through postings.ErrCorrupt block validation")
	}
}
