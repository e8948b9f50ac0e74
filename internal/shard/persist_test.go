package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/fixture"
	"repro/internal/metrics"
	"repro/internal/postings"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	names, roots := corpusDocs(t, 7, 42)
	for _, n := range []int{1, 3, 8} {
		s := newSharded(t, n, ByHash, names, roots)
		s.Warm()
		want, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
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
		got, err := loaded.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after round trip", got, want)
		// The blocks are adopted as saved: the reloaded indexes are as
		// compressed as the originals.
		for i := 0; i < n; i++ {
			if got, want := loaded.Segment(i).Index().MemStats(), s.Segment(i).Index().MemStats(); got != want {
				t.Fatalf("shards=%d: segment %d MemStats after reload = %+v, want %+v", n, i, got, want)
			}
		}
	}
}

// mutateHistory deletes, updates and adds documents on a facade loaded
// with names, leaving dead and superseded versions in its segments.
func mutateHistory(t *testing.T, s *DB, names []string) {
	t.Helper()
	if err := s.Delete(names[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(names[4], `<article><p>ctla ctlb updated</p></article>`); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("late.xml", `<article><sec><p>ctla ctlb ctla</p></sec></article>`); err != nil {
		t.Fatal(err)
	}
}

// namedResults runs a term search, ctla/ctlb unless terms are given, and
// renders each result as document name, ordinal and score, sorted: the
// identity that survives the global renumbering of a reload or a reshard.
func namedResults(t *testing.T, s *DB, terms ...string) []string {
	t.Helper()
	if len(terms) == 0 {
		terms = []string{"ctla", "ctlb"}
	}
	res, err := s.TermSearchContext(context.Background(), terms, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = fmt.Sprintf("%s/%d/%.12g", s.DocName(r.Doc), r.Ord, r.Score)
	}
	sort.Strings(out)
	return out
}

// sameNamed asserts two namedResults lists are equal.
func sameNamed(t *testing.T, label string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: results\n%s\nwant\n%s", label, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestShardSaveDuringIngest saves while a writer adds documents: every
// snapshot must load, its document records agreeing with the index
// sections written after them.
func TestShardSaveDuringIngest(t *testing.T) {
	names, roots := corpusDocs(t, 4, 77)
	s := newSharded(t, 3, RoundRobin, names, roots)
	s.Warm()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Add(fmt.Sprintf("w%04d.xml", i), fmt.Sprintf(`<a><p>ctla w%d</p></a>`, i)); err != nil {
				errc <- err
				return
			}
		}
	}()
	saveAndLoad := func(k int) error {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return fmt.Errorf("save %d: %w", k, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("snapshot %d: %w", k, err)
		}
		if loaded.DocumentCount() < len(names) {
			return fmt.Errorf("snapshot %d: %d documents, want at least %d", k, loaded.DocumentCount(), len(names))
		}
		return nil
	}
	var err error
	for k := 0; k < 10 && err == nil; k++ {
		err = saveAndLoad(k)
	}
	close(stop)
	if werr := <-errc; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// sumMagic introduces the integrity trailer (db.FrameWriter.Seal).
const sumMagic = "TIXSUM1\n"

const trailerLen = len(sumMagic) + 4

// saved returns the snapshot file of s.
func saved(t testing.TB, s *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal returns payload followed by a correct integrity trailer for it,
// so a mutated payload passes the checksum and only the loader's own
// structural checks and block validation can reject it.
func reseal(payload []byte) []byte {
	out := append(bytes.Clone(payload), sumMagic...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// fixtureDB holds the paper's Figure 1 documents on shards shards, with
// stemming and its index built.
func fixtureDB(t testing.TB, shards int) *DB {
	t.Helper()
	s := New(Options{Shards: shards, Strategy: RoundRobin, Stemming: true, Metrics: metrics.NewRegistry()})
	if err := s.LoadString("articles.xml", fixture.ArticlesXML); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadString("reviews.xml", fixture.ReviewsXML); err != nil {
		t.Fatal(err)
	}
	s.Warm()
	return s
}

// craft seals a file written by hand: the magic, then what write puts.
func craft(write func(fw *db.FrameWriter)) []byte {
	var buf bytes.Buffer
	fw := db.NewFrameWriter(&buf)
	_, _ = fw.WriteString(fileMagic)
	write(fw)
	_ = fw.Seal()
	return buf.Bytes()
}

// header writes the header of a file without stemming or stopwords.
func header(fw *db.FrameWriter, strategy byte, shards uint64) {
	_ = fw.WriteByte(strategy)
	fw.PutUvarint(shards)
	_ = fw.WriteByte(0)
	fw.PutUvarint(0)
}

// oneDoc writes the header and records of a one-shard file holding a.xml,
// "<a>x</a>", the shape the hand-written index sections below describe.
func oneDoc(fw *db.FrameWriter) {
	header(fw, 0, 1)
	fw.PutUvarint(1)
	fw.PutUvarint(0)
	fw.PutString("a.xml")
	fw.PutString("<a>x</a>")
}

// legacySnapshot is a file in the retired TIXSHD1 format: one shard
// embedding an empty TIXDB2 segment, each with its own trailer.
func legacySnapshot() []byte {
	var seg, buf bytes.Buffer
	fw := db.NewFrameWriter(&seg)
	_, _ = fw.WriteString("TIXDB2\n\x00\x00\x00\x00")
	_ = fw.Seal()
	fw = db.NewFrameWriter(&buf)
	_, _ = fw.WriteString("TIXSHD1\n\x00\x01\x00")
	fw.PutUvarint(uint64(seg.Len()))
	_, _ = fw.Write(seg.Bytes())
	_ = fw.Seal()
	return buf.Bytes()
}

// TestShardedLoadRejectsCorruption runs one named case per class of
// damage a snapshot can take. Every rejection wraps ErrCorruptSnapshot.
func TestShardedLoadRejectsCorruption(t *testing.T) {
	good := saved(t, fixtureDB(t, 3))
	payload := good[:len(good)-trailerLen]
	rejects := func(t *testing.T, label string, data []byte) error {
		t.Helper()
		d, err := Load(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptSnapshot) || d != nil {
			t.Fatalf("%s: Load = %v, %v; want ErrCorruptSnapshot", label, d, err)
		}
		return err
	}

	flipped := func(at int, mask byte) []byte {
		bad := bytes.Clone(good)
		bad[at] ^= mask
		return bad
	}

	t.Run("truncation", func(t *testing.T) {
		// Cuts across the header, the records, the index sections and
		// every partial trailer length.
		cuts := []int{0, 1, 3, len(fileMagic) + 2, len(payload) / 4, len(payload) / 2, len(payload) - 1}
		for i := 1; i < trailerLen; i++ {
			cuts = append(cuts, len(payload)+i)
		}
		for _, cut := range cuts {
			rejects(t, fmt.Sprintf("cut at %d of %d", cut, len(good)), good[:cut])
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		// A letter of document text still parses: only the checksum sees
		// it.
		err := rejects(t, "flipped letter", flipped(bytes.Index(good, []byte("Internet")), 0x20))
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("error does not name the checksum: %v", err)
		}
		for _, pos := range []int{9, len(good) / 4, len(good) / 2, len(good) - 2} {
			rejects(t, fmt.Sprintf("flipped bit at %d", pos), flipped(pos, 0x40))
		}
	})
	t.Run("trailer", func(t *testing.T) {
		rejects(t, "payload alone", payload)
		rejects(t, "flipped checksum", flipped(len(good)-1, 0xff))
		rejects(t, "byte after the trailer", append(bytes.Clone(good), 'x'))
		rejects(t, "garbage instead of the trailer", append(bytes.Clone(payload), "not a trailer!"...))
		// Sealed with the garbage: the loader stops at the payload's end,
		// so the garbage is read where the trailer belongs.
		rejects(t, "sealed garbage after the payload", reseal(append(bytes.Clone(payload), "not a trailer!"...)))
	})
	t.Run("resealed-index", func(t *testing.T) {
		// Damage the back half, where the index sections sit, and re-seal
		// so the checksum passes: an overflowing varint at every byte, and
		// cuts. Every rejection is typed, and block validation fires for
		// at least one.
		sawBlockErr := false
		for at := len(payload) / 2; at < len(payload); at++ {
			mut := bytes.Clone(payload)
			mut[at] = 0xFF
			_, err := Load(bytes.NewReader(reseal(mut)))
			if err != nil && !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("0xFF at %d: untyped error %v", at, err)
			}
			sawBlockErr = sawBlockErr || errors.Is(err, postings.ErrCorrupt)
		}
		if !sawBlockErr {
			t.Error("no mutation surfaced through postings.ErrCorrupt block validation")
		}
		for _, cut := range []int{len(payload) - 2, len(payload) - 9, len(payload) * 9 / 10} {
			rejects(t, fmt.Sprintf("re-sealed cut at %d", cut), reseal(payload[:cut]))
		}
	})
	t.Run("lying-lengths-and-counts", func(t *testing.T) {
		index := func(words ...uint64) func(fw *db.FrameWriter) {
			return func(fw *db.FrameWriter) {
				oneDoc(fw)
				for _, w := range words {
					fw.PutUvarint(w)
				}
			}
		}
		cases := map[string]func(fw *db.FrameWriter){
			"zero shards":      func(fw *db.FrameWriter) { header(fw, 0, 0) },
			"too many shards":  func(fw *db.FrameWriter) { header(fw, 0, MaxShards+1) },
			"unknown strategy": func(fw *db.FrameWriter) { header(fw, 7, 1) },
			"document on a missing shard": func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(1)
				fw.PutUvarint(1)
				fw.PutString("a.xml")
				fw.PutString("<a>x</a>")
			},
			"implausible string length": func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(1)
				fw.PutUvarint(0)
				fw.PutUvarint(1 << 40)
			},
			"string past the end": func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(1)
				fw.PutUvarint(0)
				fw.PutUvarint(1000)
				_, _ = fw.WriteString("a.xml")
			},
			"duplicate document": func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(2)
				for range 2 {
					fw.PutUvarint(0)
					fw.PutString("a.xml")
					fw.PutString("<a>x</a>")
				}
			},
			"unparsable document": func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(1)
				fw.PutUvarint(0)
				fw.PutString("a.xml")
				fw.PutString("<a>")
				_ = fw.WriteByte(0)
			},
			"index presence byte":       index(2),
			"term count past the end":   index(1, 1<<50),
			"blocks outnumber postings": index(1, 1, 1, 'x', 1, 2),
			"oversized block":           index(1, 1, 1, 'x', 1000, 1, 1000, 4, 0, 0, 0, 1),
			"block past the documents":  index(1, 1, 1, 'x', 1, 1, 1, 4, 5, 0, 0, 1),
		}
		for name, write := range cases {
			rejects(t, name, craft(write))
		}
		// The control: the hand-written file itself, without an index,
		// loads.
		if _, err := Load(bytes.NewReader(craft(index(0)))); err != nil {
			t.Fatalf("hand-written file rejected: %v", err)
		}
	})

	// The intact file still loads (the cases must not have depended on
	// shared state).
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
}

// TestOpenFileSniffsBothFormats: OpenFile opens a snapshot file and
// rejects the retired formats — a TIXSHD1 container and a bare TIXDB2
// segment — and a file too short to hold a magic with ErrCorruptSnapshot;
// a missing file is an error of its own.
func TestOpenFileSniffsBothFormats(t *testing.T) {
	dir := t.TempDir()
	names, roots := corpusDocs(t, 5, 4)
	path := filepath.Join(dir, "db.tix")
	s := newSharded(t, 2, RoundRobin, names, roots)
	s.Warm()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := newOracle(t, names, roots).TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	got, err := d.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "OpenFile", got, want)

	for name, data := range map[string][]byte{
		"legacy.tix":  legacySnapshot(),
		"segment.tix": []byte("TIXDB2\n\x00\x00\x00\x00TIXSUM1\n\x00\x00\x00\x00"),
		"short":       []byte("abc"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := OpenFile(p); !errors.Is(err, ErrCorruptSnapshot) || d != nil {
			t.Errorf("OpenFile(%s) = %v, %v; want ErrCorruptSnapshot", name, d, err)
		}
	}
	if d, err := OpenFile(filepath.Join(dir, "missing.tix")); err == nil || errors.Is(err, ErrCorruptSnapshot) || d != nil {
		t.Errorf("OpenFile(missing.tix) = %v, %v; want a not-found error", d, err)
	}
}

// TestSnapshotHoldsEachFactOnce: a file carries one magic and one
// trailer, and each document name and each option once; the options
// round-trip, and so does a database that never built its index, whose
// reload builds it lazily.
func TestSnapshotHoldsEachFactOnce(t *testing.T) {
	// "and" is a stopword the documents hold, so it shows in the
	// occurrence count, and "zzstop" one they do not, so it can be
	// counted in the file.
	stop := []string{"zzstop", "and"}
	for _, n := range []int{1, 3} {
		s := New(Options{Shards: n, Stopwords: stop, Metrics: metrics.NewRegistry()})
		names := []string{"first-doc.xml", "second-doc.xml", "third-doc.xml", "fourth-doc.xml"}
		for i, name := range names {
			if err := s.LoadString(name, fmt.Sprintf("<a>cat%d and <b>hat</b></a>", i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, warm := range []bool{false, true} {
			if warm {
				s.Warm()
			}
			data := saved(t, s)
			for _, fact := range append([]string{fileMagic, sumMagic, "zzstop"}, names...) {
				if c := bytes.Count(data, []byte(fact)); c != 1 {
					t.Errorf("shards=%d warm=%v: %q appears %d times, want once", n, warm, fact, c)
				}
			}
			d, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("shards=%d warm=%v: %v", n, warm, err)
			}
			if !slices.Equal(d.opts.Stopwords, stop) || d.opts.Stemming || d.Shards() != n {
				t.Fatalf("shards=%d warm=%v: options after reload = %+v", n, warm, d.opts)
			}
			if st := d.Stats(); st.Documents != len(names) || st.Occurrences != int64(2*len(names)) {
				t.Fatalf("shards=%d warm=%v: stats after reload = %+v", n, warm, st)
			}
		}
	}
	// Stemming round-trips too.
	d, err := Load(bytes.NewReader(saved(t, fixtureDB(t, 1))))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.TermSearchContext(context.Background(), []string{"engines"}, db.TermSearchOptions{})
	if err != nil || !d.opts.Stemming || len(res) == 0 {
		t.Fatalf("stemming lost on reload: %v results, %v", len(res), err)
	}
}

// TestSaveLoadAfterMutations pins the same behaviour across a reload for
// 1 and 3 shards, after adds, an update and a delete: the reopened
// database answers /query byte for byte, and /terms and /phrase with the
// same results in the same order once document ids are read as names (ids
// renumber densely on open); saving it again gives the same bytes; and
// saves of one never-mutated corpus are identical.
func TestSaveLoadAfterMutations(t *testing.T) {
	names, roots := corpusDocs(t, 6, 21)
	reads := []cachedRead{
		{name: "terms", terms: []string{"ctla", "ctlb"}},
		{name: "complex", terms: []string{"ctla", "ctlc"}, cplx: true},
		{name: "phrase", terms: []string{"ctla", "ctlb"}, phrase: true},
	}
	for _, n := range []int{1, 3} {
		s, twin := newSharded(t, n, ByHash, names, roots), newSharded(t, n, ByHash, names, roots)
		s.Warm()
		twin.Warm()
		if first := saved(t, s); !bytes.Equal(first, saved(t, s)) || !bytes.Equal(first, saved(t, twin)) {
			t.Fatalf("shards=%d: saves of one never-mutated corpus differ", n)
		}
		mutateHistory(t, s, names)
		data := saved(t, s)
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		h, lh := handler(s), handler(loaded)
		for _, r := range reads {
			if got, want := namedReply(t, loaded, r.run(t, lh)), namedReply(t, s, r.run(t, h)); got != want {
				t.Fatalf("shards=%d %s: reloaded reply\n%s\nwant\n%s", n, r.name, got, want)
			}
		}
		for _, name := range []string{names[0], names[4], "late.xml"} {
			q := queryFor(name)
			if got, want := queryReply(t, lh, q), queryReply(t, h, q); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d query over %s: reloaded reply\n%s\nwant\n%s", n, name, got, want)
			}
		}
		if !bytes.Equal(saved(t, loaded), data) {
			t.Fatalf("shards=%d: save(open(save(d))) differs from save(d)", n)
		}
	}
}

// queryReply posts q to /query on h and returns the 200 reply.
func queryReply(t *testing.T, h http.Handler, q string) []byte {
	t.Helper()
	body, err := json.Marshal(server.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/query: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// namedReply re-encodes a /terms or /phrase reply of d with each document
// id replaced by the document's name, results in reply order.
func namedReply(t *testing.T, d *DB, reply []byte) string {
	t.Helper()
	var v struct {
		Count   int              `json:"count"`
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(reply, &v); err != nil {
		t.Fatalf("%v: %s", err, reply)
	}
	lines := []string{fmt.Sprint(v.Count)}
	for _, r := range v.Results {
		r["doc"] = d.DocName(storage.DocID(r["doc"].(float64)))
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	return strings.Join(lines, "\n")
}

// TestUpdateOrderSurvivesReopen: an update moves the document to the end
// of document order, so /phrase, /terms and top-k list results in the
// order the reopened database lists them, for 1 and 3 shards. Keeping the
// old global id while the segment numbered the new version last listed
// doc02 after doc05 live and in place after a reopen.
func TestUpdateOrderSurvivesReopen(t *testing.T) {
	reads := []cachedRead{
		{name: "phrase", terms: []string{"ctla", "ctlb"}, phrase: true},
		{name: "terms", terms: []string{"ctla", "ctlb"}},
		{name: "topk", terms: []string{"ctla"}, topK: 3},
		{name: "complex topk", terms: []string{"ctla", "ctlb"}, topK: 3, cplx: true},
	}
	for _, n := range []int{1, 3} {
		s := New(Options{Shards: n, Metrics: metrics.NewRegistry()})
		for i := 1; i <= 5; i++ {
			if err := s.Add(fmt.Sprintf("doc%02d.xml", i), ctlDoc(i, true)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Update("doc02.xml", ctlDoc(2, true)); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(saved(t, s)))
		if err != nil {
			t.Fatal(err)
		}
		h, lh := handler(s), handler(loaded)
		for _, r := range reads {
			if got, want := namedReply(t, s, r.run(t, h)), namedReply(t, loaded, r.run(t, lh)); got != want {
				t.Errorf("shards=%d %s: live reply\n%s\nreopened\n%s", n, r.name, got, want)
			}
		}
	}
}

// TestAcceptedDocumentsSaveAndOpen: after every document Add accepts, a
// save opens again and holds every document. The inputs are the shapes
// that once parsed to trees whose serialization did not parse back the
// same: prefixed names, split character data, nesting at the limit,
// several top-level elements, escapes; the ones Add rejects must not
// change that.
func TestAcceptedDocumentsSaveAndOpen(t *testing.T) {
	deep := strings.Repeat("<d>", xmltree.MaxDepth) + "leaf" + strings.Repeat("</d>", xmltree.MaxDepth)
	inputs := []string{
		`<x:a A:0="" A00="">hi</x:a>`,
		`<x:a xmlns:x="u" y:b="1" A00="">hi there</x:a>`,
		`<a xmlns="u"><b c:d="e">f</b></a>`,
		`<a><b>alpha<!--c-->beta <?pi x?> gamma<![CDATA[ <d>]]></b>tail</a>`,
		`<r>one</r><r>two<s>three</s></r>`,
		`<a t="&#xD;&#9;&lt;&quot;">x &amp; y &#xA; z caf&#233;</a>`,
		deep,
		deep + "<e/>",
		strings.Repeat("<d>", xmltree.MaxDepth+1) + strings.Repeat("</d>", xmltree.MaxDepth+1),
	}
	for _, n := range []int{1, 3} {
		s := New(Options{Shards: n, Metrics: metrics.NewRegistry()})
		s.Warm()
		accepted := 0
		for i, src := range inputs {
			if err := s.Add(fmt.Sprintf("d%d.xml", i), src); err != nil {
				continue
			}
			accepted++
			d, err := Load(bytes.NewReader(saved(t, s)))
			if err != nil {
				t.Fatalf("shards=%d: after adding input %d: %v", n, i, err)
			}
			if d.DocumentCount() != accepted {
				t.Fatalf("shards=%d: after adding input %d: %d documents, want %d", n, i, d.DocumentCount(), accepted)
			}
			for _, term := range []string{"gamma", "hi", "three", "leaf"} {
				sameNamed(t, fmt.Sprintf("shards=%d: after adding input %d: %q", n, i, term), namedResults(t, d, term), namedResults(t, s, term))
			}
		}
		if accepted != len(inputs)-3 {
			t.Fatalf("shards=%d: Add accepted %d of %d inputs, want all but the three invalid ones", n, accepted, len(inputs))
		}
	}
}

// TestLoadTreeRejectsUnparsableTrees: LoadTree holds a tree built in code
// to what Parse returns, so a tree whose serialization would reopen as a
// different one fails at load with the xmltree sentinel, and leaves
// nothing behind that a search or a save could trip on. The first case is
// text children "alpha" and "beta", which a snapshot used to reopen as one
// text node, after which a search for "beta" panicked.
func TestLoadTreeRejectsUnparsableTrees(t *testing.T) {
	elem := func(tag string, children ...*xmltree.Node) *xmltree.Node {
		n := xmltree.NewElement(tag)
		for _, c := range children {
			n.AppendChild(c)
		}
		return n
	}
	deep := xmltree.NewText("beta")
	for range xmltree.MaxDepth + 1 {
		deep = elem("d", deep)
	}
	badAttr := elem("a", xmltree.NewText("beta"))
	badAttr.Attrs = []xmltree.Attr{{Name: "x:y", Value: "1"}}
	cases := []struct {
		root *xmltree.Node
		want error
	}{
		{elem("a", xmltree.NewText("alpha"), xmltree.NewText("beta")), xmltree.ErrSplitText},
		{elem("a", elem("b", xmltree.NewText(" beta"))), xmltree.ErrSplitText},
		{elem("a", xmltree.NewText(""), elem("b", xmltree.NewText("beta"))), xmltree.ErrSplitText},
		{elem("0a", xmltree.NewText("beta")), xmltree.ErrInvalidName},
		{elem("a", elem("p:b", xmltree.NewText("beta"))), xmltree.ErrInvalidName},
		{badAttr, xmltree.ErrInvalidName},
		{deep, xmltree.ErrTooDeep},
	}
	s := New(Options{Shards: 1, Metrics: metrics.NewRegistry()})
	s.Warm()
	if err := s.LoadTree("ok.xml", elem("a", xmltree.NewText("alpha beta"), elem("b", xmltree.NewText("beta")))); err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		xmltree.Number(c.root)
		if err := s.LoadTree(fmt.Sprintf("bad%d.xml", i), c.root); !errors.Is(err, c.want) {
			t.Fatalf("case %d: LoadTree = %v, want %v", i, err, c.want)
		}
	}
	d, err := Load(bytes.NewReader(saved(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if d.DocumentCount() != 1 {
		t.Fatalf("reopened %d documents, want 1", d.DocumentCount())
	}
	for _, db := range []*DB{s, d} {
		if got := namedResults(t, db, "beta"); len(got) == 0 {
			t.Fatal(`no result for "beta"`)
		}
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

// killSaveEnv names the snapshot path in the environment of the child
// process TestSaveFileSurvivesKill re-executes; its presence makes the
// test act as that child.
const killSaveEnv = "TIX_KILL_SAVE_PATH"

// TestSaveFileSurvivesKill pins crash-safe saving against a killed
// process. A child (this test binary, re-executed) saves a growing corpus
// in a loop, printing "saving N" before and "saved N" after each save of N
// documents. The parent SIGKILLs it at a seeded random point after a few
// acknowledged saves. The file must then open and hold either the last
// acknowledged save or the one in flight, with only temporary files
// beside it.
func TestSaveFileSurvivesKill(t *testing.T) {
	if path := os.Getenv(killSaveEnv); path != "" {
		saveUntilKilled(t, path)
		return
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		killAfter := 1 + rng.Intn(8) // acknowledged saves before the kill
		delay := time.Duration(rng.Intn(4000)) * time.Microsecond
		dir := t.TempDir()
		path := filepath.Join(dir, "db.tix")

		cmd := exec.Command(os.Args[0], "-test.run=^TestSaveFileSurvivesKill$")
		cmd.Env = append(os.Environ(), killSaveEnv+"="+path)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		acked, inFlight := 0, 0
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var verb string
			var n int
			if _, err := fmt.Sscanf(sc.Text(), "%s %d", &verb, &n); err != nil {
				continue
			}
			switch verb {
			case "saving":
				inFlight = n
			case "saved":
				acked, inFlight = n, 0
				if n == killAfter {
					time.Sleep(delay)
					if err := cmd.Process.Kill(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := cmd.Wait(); cmd.ProcessState == nil || cmd.ProcessState.Exited() {
			t.Fatalf("round %d: child was not killed (acked %d): %v", round, acked, err)
		}

		d, err := OpenFile(path)
		if err != nil {
			t.Fatalf("round %d: snapshot after kill (acked %d, in flight %d) does not open: %v", round, acked, inFlight, err)
		}
		if n := d.DocumentCount(); n != acked && (inFlight == 0 || n != inFlight) {
			t.Fatalf("round %d: snapshot holds %d documents, want %d (acknowledged) or %d (in flight)", round, n, acked, inFlight)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "db.tix" && !strings.HasPrefix(e.Name(), "db.tix.tmp") {
				t.Errorf("round %d: unexpected leftover %s", round, e.Name())
			}
		}
	}
}

// saveUntilKilled is the child side of TestSaveFileSurvivesKill: it adds
// one document at a time and saves after each, reporting every save on
// stdout, until it is killed or runs out of documents.
func saveUntilKilled(t *testing.T, path string) {
	names, roots := corpusDocs(t, 64, 5)
	s := New(Options{Shards: 2, Strategy: RoundRobin})
	for i, name := range names {
		if err := s.LoadTree(name, roots[i]); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("saving %d\n", i+1)
		if err := s.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("saved %d\n", i+1)
	}
}

func TestReshardPreservesResults(t *testing.T) {
	names, roots := corpusDocs(t, 6, 13)
	s := newSharded(t, 2, ByHash, names, roots)
	want, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
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
		got, err := r.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameScored(t, "after reshard", got, want)
	}

	// A history with a delete, an update and a burned slot: a reshard
	// carries exactly the live documents, in their current versions.
	h := newSharded(t, 2, ByHash, names, roots)
	mutateHistory(t, h, names)
	if err := h.BurnDocID(); err != nil {
		t.Fatal(err)
	}
	wantNamed := namedResults(t, h)
	for _, n := range []int{1, 3} {
		r, err := h.Reshard(n, RoundRobin)
		if err != nil {
			t.Fatalf("history: reshard to %d: %v", n, err)
		}
		if r.DocumentCount() != h.DocumentCount() {
			t.Fatalf("history: reshard to %d: %d documents, want %d", n, r.DocumentCount(), h.DocumentCount())
		}
		if _, ok := r.ShardOf(names[1]); ok {
			t.Fatalf("history: reshard to %d brought back deleted %q", n, names[1])
		}
		sameNamed(t, fmt.Sprintf("history: reshard to %d", n), namedResults(t, r), wantNamed)
	}
}

// TestShardCountIsCapped: no layout can be built that a snapshot cannot
// hold. New caps the shard count at MaxShards, such a database saves and
// opens again, and Reshard refuses more.
func TestShardCountIsCapped(t *testing.T) {
	s := New(Options{Shards: MaxShards + 1})
	if s.Shards() != MaxShards {
		t.Fatalf("New with %d shards built %d, want %d", MaxShards+1, s.Shards(), MaxShards)
	}
	if d, err := Load(bytes.NewReader(saved(t, s))); err != nil || d.Shards() != MaxShards {
		t.Fatalf("reopening %d shards: %v", MaxShards, err)
	}
	if _, err := s.Reshard(MaxShards+1, RoundRobin); err == nil {
		t.Fatalf("Reshard to %d shards succeeded", MaxShards+1)
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
