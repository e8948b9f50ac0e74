package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
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
	}

	// A history with a delete and an update: the snapshot holds only the
	// live version of each document, and it must open. Global ids
	// renumber on reload, so results compare by document name.
	for _, n := range []int{1, 3} {
		s := newSharded(t, n, ByHash, names, roots)
		mutateHistory(t, s, names)
		want := namedResults(t, s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("shards=%d history: save: %v", n, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d history: load: %v", n, err)
		}
		if loaded.DocumentCount() != s.DocumentCount() {
			t.Fatalf("shards=%d history: loaded %d documents, want %d", n, loaded.DocumentCount(), s.DocumentCount())
		}
		sameNamed(t, fmt.Sprintf("shards=%d history: after round trip", n), namedResults(t, loaded), want)
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

// namedResults runs the ctla/ctlb term search and renders each result as
// document name, ordinal and score, sorted: the identity that survives
// the global renumbering of a reload or a reshard.
func namedResults(t *testing.T, s *DB) []string {
	t.Helper()
	res, err := s.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
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
// snapshot must load, its placement table agreeing with the segment
// snapshots written after it.
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
	// A bare segment snapshot is not a sharded container.
	var segment bytes.Buffer
	if err := s.Segment(0).Save(&segment); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(segment.Bytes())); err == nil {
		t.Error("bare segment snapshot accepted by sharded Load")
	}
	// The intact file still loads (the corruption loop must not have
	// depended on shared state).
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact file rejected: %v", err)
	}
}

// TestOpenFileSniffsBothFormats: OpenFile tells the sharded container
// from a bare segment snapshot by its magic. The container opens and
// answers as it was saved; a bare segment (what db.Save writes) is
// rejected rather than wrapped as a one-shard database, and so are a file
// too short to hold a magic and a missing file.
func TestOpenFileSniffsBothFormats(t *testing.T) {
	dir := t.TempDir()
	names, roots := corpusDocs(t, 5, 4)

	shardedPath := filepath.Join(dir, "sharded.tix")
	s := newSharded(t, 2, RoundRobin, names, roots)
	s.Warm()
	if err := s.SaveFile(shardedPath); err != nil {
		t.Fatal(err)
	}

	// A bare segment snapshot of the same corpus.
	segmentPath := filepath.Join(dir, "segment.tix")
	mono := newOracle(t, names, roots)
	mono.Index()
	var segment bytes.Buffer
	if err := mono.Save(&segment); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath, segment.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := mono.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(shardedPath)
	if err != nil {
		t.Fatalf("OpenFile(sharded): %v", err)
	}
	got, err := d.TermSearchContext(context.Background(), []string{"ctla", "ctlb"}, db.TermSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "OpenFile sharded", got, want)

	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{segmentPath, short, filepath.Join(dir, "missing.tix")} {
		if d, err := OpenFile(path); err == nil || d != nil {
			t.Errorf("OpenFile(%s) = %v, %v; want an error", filepath.Base(path), d, err)
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
