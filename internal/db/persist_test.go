package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/synth"
	"repro/internal/xmltree"
)

// The snapshot file (internal/shard) embeds the pieces this package owns:
// a segment's persisted view, its index section, and the frame both are
// written through. These tests check those pieces directly: an index
// section sealed by a FrameWriter, read back by DecodeIndex and
// InstallIndex into a segment holding the view's documents. The file's
// own records and its corruption classes are tested in internal/shard.

var errCorrupt = errors.New("corrupt")

// persisted returns d's live documents as PersistView orders them and
// their index section, sealed with the frame's trailer.
func persisted(t testing.TB, d *DB) ([]*storage.Document, []byte) {
	t.Helper()
	var locals []storage.DocID
	for _, doc := range d.Store().Docs() {
		if !d.IsDeleted(doc.ID) {
			locals = append(locals, doc.ID)
		}
	}
	docs, idx, err := d.PersistView(locals)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := WriteIndex(fw, idx); err != nil {
		t.Fatal(err)
	}
	if err := fw.Seal(); err != nil {
		t.Fatal(err)
	}
	return docs, buf.Bytes()
}

// restore loads docs, in order, into a segment with opts and reads the
// sealed index section in data into it, as the snapshot loader does:
// decode, validate every list, install, then check the payload was
// consumed.
func restore(docs []*storage.Document, opts Options, data []byte) (*DB, error) {
	d := New(opts)
	for _, doc := range docs {
		if err := d.LoadTree(doc.Name, doc.Root); err != nil {
			return nil, err
		}
	}
	fr, err := NewFrameReader(data, "", "section", errCorrupt)
	if err != nil {
		return nil, err
	}
	sec := DecodeIndex(fr, len(docs))
	for i := range sec.Lists() {
		sec.Validate(i)
	}
	if err := d.InstallIndex(sec); err != nil {
		return nil, err
	}
	if err := fr.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// roundTrip restores d from its persisted view.
func roundTrip(t *testing.T, d *DB, opts Options) *DB {
	t.Helper()
	docs, data := persisted(t, d)
	d2, err := restore(docs, opts, data)
	if err != nil {
		t.Fatal(err)
	}
	return d2
}

// fixtureOpts are the options newFixtureDB builds with.
var fixtureOpts = Options{Stemming: true}

// sealedFixture returns the fixture's documents and sealed index section.
func sealedFixture(t testing.TB) ([]*storage.Document, []byte) {
	t.Helper()
	d := newFixtureDB(t)
	d.Index()
	return persisted(t, d)
}

const trailerLen = len(sumMagic) + 4

// reseal returns payload followed by a correct trailer for it, so a
// mutated section passes the checksum and only ReadIndex's checks and
// block validation can reject it.
func reseal(payload []byte) []byte {
	out := append(bytes.Clone(payload), sumMagic...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := newFixtureDB(t)
	d.Index()
	d2 := roundTrip(t, d, fixtureOpts)
	if got, want := d2.Stats(), d.Stats(); got != want {
		t.Errorf("stats after reload = %+v, want %+v", got, want)
	}
	for _, term := range []string{"search", "engine", "internet", "doe"} {
		if !reflect.DeepEqual(d2.Index().List(term).Materialize(), d.Index().List(term).Materialize()) {
			t.Errorf("postings for %q differ after reload", term)
		}
	}
	// The reloaded segment answers the paper's Query 2 identically.
	sameQuery(t, d, d2, `
		For $a := document("articles.xml")//article[/author/sname/text()="Doe"]/descendant-or-self::*
		Score $a using ScoreFoo($a, {"search engine"}, {"internet", "information retrieval"})
		Pick $a using PickFoo($a)
		Sortby(score)
		Threshold $a/@score > 4 stop after 5`)
}

// sameQuery checks that d and d2 answer q with the same nodes, scores and
// XML, and with at least one result.
func sameQuery(t *testing.T, d, d2 *DB, q string) {
	t.Helper()
	r1, err := d.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || len(r1) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Ord != r2[i].Ord || r1[i].Score != r2[i].Score ||
			xmltree.XMLString(r1[i].Node) != xmltree.XMLString(r2[i].Node) {
			t.Errorf("result %d differs after reload", i)
		}
	}
}

// TestSaveLoadWithoutIndex: a segment that never built its index writes
// only the absent-section byte, and its reload builds the index lazily.
func TestSaveLoadWithoutIndex(t *testing.T) {
	d := New(Options{})
	if err := d.LoadString("a.xml", `<a>hello world</a>`); err != nil {
		t.Fatal(err)
	}
	docs, data := persisted(t, d)
	if len(data) != 1+trailerLen || data[0] != 0 {
		t.Fatalf("never-indexed segment wrote a %d-byte section", len(data)-trailerLen)
	}
	d2, err := restore(docs, Options{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Index().TermFreq("hello") != 1 {
		t.Errorf("lazily rebuilt index wrong")
	}
}

// TestSaveLoadPreservesOptions: the index section holds the terms as the
// saved options tokenized them — stopwords dropped, words stemmed — and
// the reload adopts them as written.
func TestSaveLoadPreservesOptions(t *testing.T) {
	for _, c := range []struct {
		opts      Options
		src       string
		gone, has string
	}{
		{Options{Stopwords: []string{"the", "and"}}, `<a>the cat and hat</a>`, "the", "cat"},
		{Options{Stemming: true}, `<a>engines</a>`, "engines", "engine"},
	} {
		d := New(c.opts)
		if err := d.LoadString("a.xml", c.src); err != nil {
			t.Fatal(err)
		}
		d.Index()
		d2 := roundTrip(t, d, c.opts)
		if d2.Index().TermFreq(c.gone) != 0 || d2.Index().TermFreq(c.has) != 1 {
			t.Errorf("options %+v lost on reload", c.opts)
		}
	}
}

// TestSaveFileLoadDBFile: a section read back from a file reads as it
// does from memory.
func TestSaveFileLoadDBFile(t *testing.T) {
	docs, data := sealedFixture(t)
	path := filepath.Join(t.TempDir(), "section")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := restore(docs, fixtureOpts, read)
	if err != nil {
		t.Fatal(err)
	}
	if d.Index().TermFreq("internet") == 0 {
		t.Error("file round trip lost the index")
	}
}

func TestLoadCorruption(t *testing.T) {
	docs, full := sealedFixture(t)
	for _, in := range [][]byte{nil, {2}, []byte("NOTADB!\n")} {
		if _, err := restore(docs, fixtureOpts, in); !errors.Is(err, errCorrupt) {
			t.Errorf("input %q: err = %v, want errCorrupt", in, err)
		}
	}
	// A flipped byte in the term headers must error, never panic.
	mut := bytes.Clone(full)
	mut[3] ^= 0xFF
	if _, err := restore(docs, fixtureOpts, mut); err == nil {
		t.Error("flipped byte accepted")
	}
}

func TestSnapshotRoundTripWithTrailer(t *testing.T) {
	docs, data := sealedFixture(t)
	if !bytes.HasPrefix(data[len(data)-trailerLen:], []byte(sumMagic)) {
		t.Fatalf("sealed section does not end in a %q trailer", sumMagic)
	}
	if !bytes.Equal(reseal(data[:len(data)-trailerLen]), data) {
		t.Fatal("the trailer is not the CRC32 of the bytes before it")
	}
	d, err := restore(docs, fixtureOpts, data)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Documents != 2 || st.Terms == 0 {
		t.Errorf("reloaded stats = %+v", st)
	}
}

// TestSnapshotLegacyWithoutTrailer: a payload without its trailer (a
// truncation landing exactly on the payload boundary) is rejected; the
// trailer is mandatory.
func TestSnapshotLegacyWithoutTrailer(t *testing.T) {
	docs, data := sealedFixture(t)
	d, err := restore(docs, fixtureOpts, data[:len(data)-trailerLen])
	if !errors.Is(err, errCorrupt) || d != nil {
		t.Fatalf("trailer-less payload: %v, %v; want errCorrupt", d, err)
	}
}

func TestSnapshotTruncation(t *testing.T) {
	docs, data := sealedFixture(t)
	payload := len(data) - trailerLen
	// Cuts across the payload fail the decode; every partial trailer
	// fails the integrity check.
	cuts := []int{0, 1, 3, payload / 4, payload / 2, payload - 1}
	for i := 1; i < trailerLen; i++ {
		cuts = append(cuts, payload+i)
	}
	for _, cut := range cuts {
		if _, err := restore(docs, fixtureOpts, data[:cut]); !errors.Is(err, errCorrupt) {
			t.Errorf("truncation at %d of %d: err = %v, want errCorrupt", cut, len(data), err)
		}
	}
}

// TestSnapshotBitFlip: corrupting a payload byte that still decodes (a
// letter inside a term) is caught only by the checksum.
func TestSnapshotBitFlip(t *testing.T) {
	docs, data := sealedFixture(t)
	at := bytes.Index(data, []byte("internet"))
	if at < 0 {
		t.Fatal("marker term not found in section")
	}
	data[at] ^= 0x20 // 'i' -> 'I': a different term, still well formed
	_, err := restore(docs, fixtureOpts, data)
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want a checksum mismatch", err)
	}
}

func TestSnapshotTrailingGarbage(t *testing.T) {
	docs, data := sealedFixture(t)
	payload := data[:len(data)-trailerLen]
	for label, in := range map[string][]byte{
		"byte after trailer":         append(bytes.Clone(data), 'x'),
		"garbage instead of trailer": append(bytes.Clone(payload), "not a trailer!"...),
		// The reader stops at the section's end, so garbage sealed into
		// the checksum is read where the trailer belongs.
		"sealed garbage after payload": reseal(append(bytes.Clone(payload), "not a trailer!"...)),
	} {
		if _, err := restore(docs, fixtureOpts, in); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", label, err)
		}
	}
}

func TestSnapshotCorruptTrailerChecksumBytes(t *testing.T) {
	docs, data := sealedFixture(t)
	data[len(data)-1] ^= 0xff // flip the checksum itself
	if _, err := restore(docs, fixtureOpts, data); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want errCorrupt", err)
	}
}

// TestV2ReloadKeepsCompression: the index section adopts the block
// payloads verbatim, so the reloaded index is as compact as the saved
// one, over a corpus whose posting lists are long enough for block
// compression to pay.
func TestV2ReloadKeepsCompression(t *testing.T) {
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
	want := d.Index().MemStats()
	got := roundTrip(t, d, Options{}).Index().MemStats()
	if got != want {
		t.Errorf("reloaded MemStats = %+v, want %+v", got, want)
	}
	// Block compression at least halves the postings memory against the
	// raw 16-byte representation.
	if got.Ratio < 2 {
		t.Errorf("reloaded compression ratio %.2f, want >= 2", got.Ratio)
	}
}

// TestV2TrailerlessCorruption damages the tail of the index section and
// re-seals a correct trailer, so the checksum cannot catch the damage:
// ReadIndex's checks and the per-block validation in NewBlockList are the
// defense. Every flip must error or load cleanly, never panic, and some
// must be rejected.
func TestV2TrailerlessCorruption(t *testing.T) {
	docs, data := sealedFixture(t)
	payload := data[:len(data)-trailerLen]
	rejected := 0
	for at := len(payload) * 3 / 4; at < len(payload); at += 7 {
		mut := bytes.Clone(payload)
		mut[at] ^= 0xFF
		d, err := restore(docs, fixtureOpts, reseal(mut))
		if err == nil && d == nil {
			t.Fatalf("flip at %d: no database and no error", at)
		}
		if err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no index-section flip was rejected; block validation appears inert")
	}
}

// TestV2TrailerlessTruncation: a section cut short and re-sealed passes
// the checksum, so ReadIndex must reject it.
func TestV2TrailerlessTruncation(t *testing.T) {
	docs, data := sealedFixture(t)
	payload := data[:len(data)-trailerLen]
	for _, cut := range []int{len(payload) - 2, len(payload) - 9, len(payload) * 9 / 10, 1} {
		if _, err := restore(docs, fixtureOpts, reseal(payload[:cut])); !errors.Is(err, errCorrupt) {
			t.Errorf("re-sealed truncation at %d of %d: err = %v", cut, len(payload), err)
		}
	}
}

// TestV2CorruptSkipMetadata forces an overflowing varint into each byte
// of the back half of the index section — term headers, skip entries,
// block payloads — and re-seals a correct trailer. The block validator
// must fire for at least one mutation, and its postings.ErrCorrupt must
// come wrapped in the caller's corrupt sentinel.
func TestV2CorruptSkipMetadata(t *testing.T) {
	docs, data := sealedFixture(t)
	payload := data[:len(data)-trailerLen]
	sawBlockErr := false
	for at := len(payload) / 2; at < len(payload); at++ {
		mut := bytes.Clone(payload)
		mut[at] = 0xFF
		_, err := restore(docs, fixtureOpts, reseal(mut))
		if errors.Is(err, postings.ErrCorrupt) {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("flip at %d: block error %v not wrapped in the corrupt sentinel", at, err)
			}
			sawBlockErr = true
		}
	}
	if !sawBlockErr {
		t.Error("no corruption surfaced through postings.ErrCorrupt block validation")
	}
}

// FuzzLoad drives ReadIndex over arbitrary index sections for the
// fixture's documents. Each input is re-sealed before it is read, so the
// checksum never stops it and every mutation meets ReadIndex's checks and
// block validation. The load must return a segment or an error, never
// panic, hang, or allocate unboundedly from a lying count. Seeds cover
// the fixture's section, a prefix of it, the section with one byte
// mutated, a lone presence byte, empty input, the section of a segment
// with stopwords and no index, and the section re-indexed after a
// delete.
func FuzzLoad(f *testing.F) {
	docs, valid := sealedFixture(f)
	valid = valid[:len(valid)-trailerLen]
	mut := bytes.Clone(valid)
	mut[len(mut)*9/10] ^= 0xFF
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(mut)
	f.Add([]byte{1})
	f.Add([]byte{})
	sw := New(Options{Stopwords: []string{"the", "and"}})
	if err := sw.LoadString("a.xml", "<a>the cat and <b>the hat</b></a>"); err != nil {
		f.Fatal(err)
	}
	_, cold := persisted(f, sw)
	f.Add(cold[:len(cold)-trailerLen])
	d := newFixtureDB(f)
	d.Index()
	if err := d.Delete("articles.xml"); err != nil {
		f.Fatal(err)
	}
	_, deleted := persisted(f, d)
	f.Add(deleted[:len(deleted)-trailerLen])

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := restore(docs, fixtureOpts, reseal(data))
		if err == nil && d == nil {
			t.Fatal("load returned neither a segment nor an error")
		}
	})
}
