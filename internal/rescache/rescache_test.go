package rescache

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/metrics"
)

// newTestCache builds a cache with a private metrics registry.
func newTestCache(t *testing.T, maxBytes int64, shards int) *Cache {
	t.Helper()
	c := New(Config{
		MaxBytes: maxBytes,
		Shards:   shards,
		Metrics:  metrics.NewRegistry(),
	})
	if c == nil {
		t.Fatal("New returned nil for a positive budget")
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewRejectsNonPositiveBudget(t *testing.T) {
	if c := New(Config{MaxBytes: 0}); c != nil {
		t.Error("New(MaxBytes: 0) != nil")
	}
	if c := New(Config{MaxBytes: -1}); c != nil {
		t.Error("New(MaxBytes: -1) != nil")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := newTestCache(t, 1<<20, 4)
	k := TermKey(7, []string{"search", "engine"}, TermOpts{TopK: 5})
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := []exec.ScoredNode{{Doc: 1, Ord: 2, Score: 3.5}}
	PutSlice(c, k, want)
	got, ok := GetSlice[exec.ScoredNode](c, k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("GetSlice = %v, %v; want %v, true", got, ok, want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
	if st.Bytes <= 0 || st.Entries != 1 {
		t.Errorf("accounting = %d bytes / %d entries, want positive / 1", st.Bytes, st.Entries)
	}
}

func TestGetSliceCopies(t *testing.T) {
	c := newTestCache(t, 1<<20, 1)
	k := PhraseKey(1, []string{"alpha", "beta"}, exec.Limits{})
	orig := []exec.PhraseMatch{{Doc: 4, Node: 5, Pos: 6}}
	PutSlice(c, k, orig)
	orig[0].Doc = 99 // the caller's slice is not the cached master

	got, _ := GetSlice[exec.PhraseMatch](c, k)
	if got[0].Doc != 4 {
		t.Fatalf("put did not copy: cached Doc = %d, want 4", got[0].Doc)
	}
	got[0].Doc = 77 // nor is the returned slice
	again, _ := GetSlice[exec.PhraseMatch](c, k)
	if again[0].Doc != 4 {
		t.Fatalf("get did not copy: cached Doc = %d, want 4", again[0].Doc)
	}
}

func TestNilSliceRoundTripsAsNil(t *testing.T) {
	c := newTestCache(t, 1<<20, 1)
	k := PhraseKey(2, []string{"nothing"}, exec.Limits{})
	PutSlice(c, k, []exec.PhraseMatch(nil))
	got, ok := GetSlice[exec.PhraseMatch](c, k)
	if !ok {
		t.Fatal("nil-slice entry missed")
	}
	if got != nil {
		t.Fatalf("cached nil came back non-nil: %#v", got)
	}
}

func TestLRUEvictsOldestUnderPressure(t *testing.T) {
	c := newTestCache(t, 2048, 1)
	keyOf := func(i int) Key { return TermKey(1, []string{fmt.Sprintf("t%03d", i)}, TermOpts{}) }
	for i := 0; i < 64; i++ {
		PutSlice(c, keyOf(i), make([]exec.ScoredNode, 4))
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 2KiB budget")
	}
	if st.Bytes > 2048 {
		t.Fatalf("bytes %d above budget", st.Bytes)
	}
	if _, ok := c.Get(keyOf(63)); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := c.Get(keyOf(0)); ok {
		t.Error("oldest entry survived pressure")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUTouchOnGetProtectsHotEntry(t *testing.T) {
	c := newTestCache(t, 2048, 1)
	hot := TermKey(1, []string{"hot"}, TermOpts{})
	PutSlice(c, hot, make([]exec.ScoredNode, 4))
	for i := 0; i < 64; i++ {
		if _, ok := GetSlice[exec.ScoredNode](c, hot); !ok {
			t.Fatalf("hot entry evicted after %d inserts despite touches", i)
		}
		PutSlice(c, TermKey(1, []string{fmt.Sprintf("cold%03d", i)}, TermOpts{}), make([]exec.ScoredNode, 4))
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := newTestCache(t, 1024, 1)
	PutSlice(c, TermKey(1, []string{"big"}, TermOpts{}), make([]exec.ScoredNode, 10_000))
	st := c.Stats()
	if st.Rejected != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the oversized put rejected and nothing stored", st)
	}
}

func TestMetricsMirrorStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{MaxBytes: 1 << 20, Shards: 2, Metrics: reg})
	defer c.Close()
	k := TermKey(3, []string{"m"}, TermOpts{})
	PutSlice(c, k, make([]exec.ScoredNode, 2))
	c.Get(k)
	c.Get(TermKey(3, []string{"absent"}, TermOpts{}))
	st := c.Stats()
	checks := []struct {
		name string
		want int64
	}{
		{"tix_rescache_hits_total", st.Hits},
		{"tix_rescache_misses_total", st.Misses},
		{"tix_rescache_evictions_total", st.Evictions},
		{"tix_rescache_genmiss_total", 0},
	}
	for _, ck := range checks {
		if got := reg.Counter(ck.name).Value(); got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, got, ck.want)
		}
	}
	if got := reg.Gauge("tix_rescache_bytes").Value(); got != st.Bytes {
		t.Errorf("tix_rescache_bytes = %d, want %d", got, st.Bytes)
	}
	if got := reg.Gauge("tix_rescache_entries").Value(); got != st.Entries {
		t.Errorf("tix_rescache_entries = %d, want %d", got, st.Entries)
	}
}

// Key canonicalization and injectivity unit checks; FuzzCacheKey attacks
// the same properties adversarially.

func TestKeyEquivalentSpellingsShare(t *testing.T) {
	base := TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3})
	cases := []Key{
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, Weights: []float64{1, 1}}),
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, MinScore: -1}),
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, Weights: []float64{}}),
	}
	for i, k := range cases {
		if k != base {
			t.Errorf("case %d: equivalent spelling produced a different key", i)
		}
	}
}

func TestKeyNonEquivalentSpellingsDiffer(t *testing.T) {
	base := TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3})
	cases := []Key{
		TermKey(6, []string{"a", "b"}, TermOpts{TopK: 3}),                                      // generation
		TermKey(5, []string{"a b"}, TermOpts{TopK: 3}),                                         // term split
		TermKey(5, []string{"b", "a"}, TermOpts{TopK: 3}),                                      // order (weights pair by index)
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 4}),                                      // k
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, Complex: true}),                       // scoring fn
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, MinScore: 0.5}),                       // threshold
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, Weights: []float64{2}}),               // weight
		TermKey(5, []string{"a", "b"}, TermOpts{TopK: 3, Limits: exec.Limits{MaxResults: 10}}), // budget
		PhraseKey(5, []string{"a", "b"}, exec.Limits{}),                                        // family
	}
	for i, k := range cases {
		if k == base {
			t.Errorf("case %d: non-equivalent spelling shares the key", i)
		}
	}
}

// TestKeyCoversEveryOptionField walks TermOpts and exec.Limits by
// reflection: setting any exported field, nested ones included, to a
// non-zero value the encoder does not canonicalize away must change the
// key. A field added to either struct without extending the encoder fails
// here — requests differing only in that field would share one entry and
// serve each other's results.
func TestKeyCoversEveryOptionField(t *testing.T) {
	terms := []string{"a", "b"}
	baseTerm := TermKey(5, terms, TermOpts{})
	for _, f := range exportedLeaves(reflect.TypeOf(TermOpts{}), nil, "TermOpts") {
		var o TermOpts
		setNonCanonical(t, reflect.ValueOf(&o).Elem().FieldByIndex(f.index), f.name)
		if TermKey(5, terms, o) == baseTerm {
			t.Errorf("%s does not change TermKey", f.name)
		}
	}
	basePhrase := PhraseKey(5, terms, exec.Limits{})
	baseQuery := QueryKey(5, "q", exec.Limits{})
	for _, f := range exportedLeaves(reflect.TypeOf(exec.Limits{}), nil, "Limits") {
		var l exec.Limits
		setNonCanonical(t, reflect.ValueOf(&l).Elem().FieldByIndex(f.index), f.name)
		if PhraseKey(5, terms, l) == basePhrase {
			t.Errorf("%s does not change PhraseKey", f.name)
		}
		if QueryKey(5, "q", l) == baseQuery {
			t.Errorf("%s does not change QueryKey", f.name)
		}
	}
}

// keyField is one exported leaf field: its dotted name and the index
// path reflect.Value.FieldByIndex takes.
type keyField struct {
	name  string
	index []int
}

// exportedLeaves lists the exported fields of struct type t, descending
// into struct-typed fields.
func exportedLeaves(t reflect.Type, prefix []int, name string) []keyField {
	var out []keyField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		index := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, exportedLeaves(f.Type, index, name+"."+f.Name)...)
			continue
		}
		out = append(out, keyField{name: name + "." + f.Name, index: index})
	}
	return out
}

// setNonCanonical stores a value in v that the key encoder must keep
// distinct from zero: positive numbers (TopK and MinScore fold values at
// or below zero) and weights other than the trailing 1.0 that is trimmed.
func setNonCanonical(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		setNonCanonical(t, elem, name)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	default:
		t.Fatalf("%s has kind %s, which setNonCanonical cannot set: extend it", name, v.Kind())
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"   ", ""},
		{"For  $a   in\n\tdocument(\"x\")//a", `For $a in document("x")//a`},
		{`Score $a using ScoreFoo($a, {"search  engine"})`, `Score $a using ScoreFoo($a, {"search  engine"})`},
		{"  'a  b'  ", "'a  b'"},
		{"a ‘‘x  y’’ b", "a ‘‘x  y’’ b"},
		{"a “x  y” b", "a “x  y” b"},
		{`"unterminated   run`, `"unterminated   run`},
	}
	for _, tc := range cases {
		if got := NormalizeQuery(tc.in); got != tc.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if got := NormalizeQuery(NormalizeQuery(tc.in)); got != NormalizeQuery(tc.in) {
			t.Errorf("NormalizeQuery not idempotent on %q", tc.in)
		}
	}
}

func TestQueryKeyWhitespaceSpellings(t *testing.T) {
	a := QueryKey(1, "For  $a in\tdocument(\"x\")//a", exec.Limits{})
	b := QueryKey(1, "For $a in document(\"x\")//a", exec.Limits{})
	if a != b {
		t.Error("whitespace spellings of one query do not share a key")
	}
	c := QueryKey(1, `For $a in document("x  ")//a`, exec.Limits{})
	d := QueryKey(1, `For $a in document("x ")//a`, exec.Limits{})
	if c == d {
		t.Error("whitespace inside a string literal folded; literals must stay verbatim")
	}
}
