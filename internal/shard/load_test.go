package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/postings"
	"repro/internal/server"
	"repro/internal/xmltree"
)

// Load parses documents and validates posting lists on GOMAXPROCS
// workers and then commits them in file order. These tests check that
// nothing it returns depends on how the workers were scheduled.

// badList writes the index-section entry of term: one posting in one
// block whose one-byte payload is not a block. The skip entry is
// plausible, so only postings.NewBlockList rejects it.
func badList(fw *db.FrameWriter, term string) {
	fw.PutString(term)
	for _, v := range []uint64{1, 1, 1, 1, 0, 0, 0, 1} {
		fw.PutUvarint(v)
	}
	_ = fw.WriteByte(0xFF)
}

// TestLoadFirstErrorWins: when several records of a file are bad, Load
// reports the first in file order, with the message a one-record-at-a-time
// reader gives, however the workers finish: the first bad record is the
// slowest to fail. Each file is opened 100 times.
func TestLoadFirstErrorWins(t *testing.T) {
	const n = 200
	// slow fails only at its end, after the parser has read some 11 KB:
	// the workers finish a later bad record before it.
	slow := "<a>" + strings.Repeat("<b>word</b>", 1000)
	docName := func(i int) string { return fmt.Sprintf("d%03d.xml", i) }
	// records writes the header and n document records spread over
	// shards, with the sources in bad in place of good ones.
	records := func(fw *db.FrameWriter, shards uint64, bad map[int]string) {
		header(fw, 0, shards)
		fw.PutUvarint(n)
		for i := range n {
			fw.PutUvarint(uint64(i) % shards)
			fw.PutString(docName(i))
			src, ok := bad[i]
			if !ok {
				src = fmt.Sprintf("<d><t>w%d x</t></d>", i%7)
			}
			fw.PutString(src)
		}
	}
	// parseErr is the error Load reports for document i holding src.
	parseErr := func(i int, src string) string {
		_, err := xmltree.ParseString(src)
		if err == nil {
			t.Fatalf("%q parses", src)
		}
		return fmt.Sprintf("shard: load: document %q: %v: db: load %s: %v", docName(i), ErrCorruptSnapshot, docName(i), err)
	}
	// listErr is the error Load reports for a list badList wrote.
	listErr := func(term string) string {
		_, err := postings.NewBlockList(1, []postings.Skip{{MaxFreq: 1, End: 1}}, []byte{0xFF})
		if !errors.Is(err, postings.ErrCorrupt) {
			t.Fatalf("NewBlockList accepts the bad list: %v", err)
		}
		return fmt.Sprintf("shard: load: postings for %q: %v: %v", term, ErrCorruptSnapshot, err)
	}
	cases := []struct {
		name, want string
		file       []byte
	}{
		{
			name: "two unparsable documents",
			file: craft(func(fw *db.FrameWriter) {
				records(fw, 2, map[int]string{60: slow, 61: "<b></c>", 140: "<a>"})
				_ = fw.WriteByte(0)
				_ = fw.WriteByte(0)
			}),
			want: parseErr(60, slow),
		},
		{
			name: "an unparsable document and a bad posting list",
			file: craft(func(fw *db.FrameWriter) {
				records(fw, 1, map[int]string{n - 1: slow})
				_ = fw.WriteByte(1)
				fw.PutUvarint(1)
				badList(fw, "x")
			}),
			want: parseErr(n-1, slow),
		},
		{
			name: "an unparsable document and a record that does not decode",
			file: craft(func(fw *db.FrameWriter) {
				header(fw, 0, 1)
				fw.PutUvarint(2)
				fw.PutUvarint(0)
				fw.PutString(docName(0))
				fw.PutString(slow)
				fw.PutUvarint(5) // a shard the file does not have
				fw.PutString(docName(1))
				fw.PutString("<a>x</a>")
			}),
			want: parseErr(0, slow),
		},
		{
			name: "two bad posting lists",
			file: craft(func(fw *db.FrameWriter) {
				records(fw, 1, nil)
				_ = fw.WriteByte(1)
				fw.PutUvarint(2)
				badList(fw, "x")
				badList(fw, "y")
			}),
			want: listErr("x"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for run := range 100 {
				d, err := Load(bytes.NewReader(c.file))
				if d != nil || !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("run %d: Load = %v, %v; want ErrCorruptSnapshot", run, d, err)
				}
				if got := err.Error(); got != c.want {
					t.Fatalf("run %d: Load = %q, want %q", run, got, c.want)
				}
			}
		})
	}
}

// TestLoadConcurrentOpens opens one snapshot file from four goroutines at
// once; each opened database answers /query, /terms and /phrase byte for
// byte as the saved one does.
func TestLoadConcurrentOpens(t *testing.T) {
	names, roots := corpusDocs(t, 6, 31)
	src := newSharded(t, 3, RoundRobin, names, roots)
	src.Warm()
	path := filepath.Join(t.TempDir(), "db.tix")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	replies := func(d *DB) ([]string, error) {
		h := handler(d)
		var out []string
		post := func(path string, req any) error {
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
			}
			out = append(out, rec.Body.String())
			return nil
		}
		for _, name := range []string{names[0], names[4]} {
			if err := post("/query", server.QueryRequest{Query: queryFor(name)}); err != nil {
				return nil, err
			}
		}
		for _, req := range []server.TermsRequest{
			{Terms: []string{"ctla", "ctlb"}},
			{Terms: []string{"ctla", "ctlc"}, TopK: 5, Complex: true},
		} {
			if err := post("/terms", req); err != nil {
				return nil, err
			}
		}
		return out, post("/phrase", server.PhraseRequest{Phrase: []string{"ctla", "ctlb"}})
	}
	want, err := replies(src)
	if err != nil {
		t.Fatal(err)
	}
	const openers = 4
	got := make([][]string, openers)
	errs := make([]error, openers)
	var wg sync.WaitGroup
	for g := range openers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := OpenFile(path)
			if err == nil {
				got[g], err = replies(d)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g := range openers {
		if errs[g] != nil {
			t.Fatalf("opener %d: %v", g, errs[g])
		}
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("opener %d, reply %d:\n%s\nwant\n%s", g, i, got[g][i], want[i])
			}
		}
	}
}

// TestShardGaugesAfterBulkLoads: Load and Reshard publish each shard's
// document count once after their loops; the gauges hold the counts.
func TestShardGaugesAfterBulkLoads(t *testing.T) {
	gauges := func(reg *metrics.Registry, d *DB) {
		t.Helper()
		total := 0
		for i := range d.Shards() {
			want := d.Segment(i).DocumentCount()
			if got := reg.Gauge(fmt.Sprintf(`tix_shard_documents{shard="%d"}`, i)).Value(); got != int64(want) {
				t.Errorf("shard %d gauge = %d, want %d", i, got, want)
			}
			total += want
		}
		if total != 7 {
			t.Errorf("shards hold %d documents, want 7", total)
		}
	}
	reg := metrics.NewRegistry()
	s := New(Options{Shards: 2, Strategy: RoundRobin, Metrics: reg})
	for i := range 7 {
		if err := s.LoadString(fmt.Sprintf("d%d.xml", i), fmt.Sprintf("<d>w%d</d>", i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "db.tix")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// An opened database records into the process-wide registry.
	opened, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gauges(metrics.Default, opened)
	r, err := s.Reshard(3, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	gauges(r.MetricsRegistry(), r)
}

// TestReshardKeepsItsOwnGauges: a reshard records into a registry of its
// own, so after 2→4 and 4→2 the source's tix_shard_documents gauges still
// read its own segments' counts, and each registry holds exactly one such
// gauge per shard of its database.
func TestReshardKeepsItsOwnGauges(t *testing.T) {
	shardGauges := func(d *DB) (got, want []string) {
		var buf bytes.Buffer
		if err := d.MetricsRegistry().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "tix_shard_documents{") {
				got = append(got, line)
			}
		}
		for i := range d.Shards() {
			want = append(want, fmt.Sprintf(`tix_shard_documents{shard="%d"} %d`, i, d.Segment(i).DocumentCount()))
		}
		return got, want
	}
	for _, c := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		s := New(Options{Shards: c.from, Strategy: RoundRobin, Metrics: metrics.NewRegistry()})
		for i := range 9 {
			if err := s.LoadString(fmt.Sprintf("d%d.xml", i), fmt.Sprintf("<d>w%d</d>", i)); err != nil {
				t.Fatal(err)
			}
		}
		r, err := s.Reshard(c.to, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if r.MetricsRegistry() == s.MetricsRegistry() {
			t.Fatalf("%d→%d: the reshard shares the source's registry", c.from, c.to)
		}
		for _, d := range []*DB{s, r} {
			if got, want := shardGauges(d); !slices.Equal(got, want) {
				t.Errorf("%d→%d, %d-shard database: gauges %q, want %q", c.from, c.to, d.Shards(), got, want)
			}
		}
	}
}
