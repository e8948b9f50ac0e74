package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

const fixtureDir = "testdata/src/fixture"

// fixtureRun loads and analyzes the fixture module once; every test that
// inspects fixture diagnostics shares the result.
var fixtureRun struct {
	once  sync.Once
	prog  *Program
	diags []Diagnostic
	err   error
}

func loadFixture(t *testing.T) (*Program, []Diagnostic) {
	t.Helper()
	fixtureRun.once.Do(func() {
		prog, err := Load(fixtureDir, "./...")
		if err != nil {
			fixtureRun.err = err
			return
		}
		if len(prog.LoadErrors) > 0 {
			fixtureRun.err = fmt.Errorf("fixture load errors: %s", strings.Join(prog.LoadErrors, "; "))
			return
		}
		runner := &Runner{Analyzers: Analyzers()}
		fixtureRun.prog = prog
		fixtureRun.diags = runner.Run(prog)
	})
	if fixtureRun.err != nil {
		t.Fatalf("loading fixture module: %v", fixtureRun.err)
	}
	return fixtureRun.prog, fixtureRun.diags
}

// wantRe extracts the quoted pattern from a `// want "..."` expectation
// comment in fixture source.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string // fixture-relative, slash-separated
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants scans the fixture sources for expectation comments. The
// suppress package is excluded: its directives occupy the comment position,
// so its expectations live in TestSuppressionDirectives instead.
func collectWants(t *testing.T) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.Walk(fixtureDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(fixtureDir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "suppress/") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %w", rel, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: rel, line: i + 1, pattern: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixture wants: %v", err)
	}
	if len(wants) == 0 {
		t.Fatal("no want expectations found in fixture sources")
	}
	return wants
}

// TestFixtureDiagnostics runs the full registry over the fixture module
// and checks the findings against the // want comments: every expectation
// must be met at its exact file:line, and no unexpected finding may appear.
// Findings must also arrive sorted by (file, line), so output is stable.
func TestFixtureDiagnostics(t *testing.T) {
	_, diags := loadFixture(t)
	wants := collectWants(t)

	for i := 1; i < len(diags); i++ {
		prev, cur := diags[i-1], diags[i]
		if prev.Pos.Filename > cur.Pos.Filename ||
			(prev.Pos.Filename == cur.Pos.Filename && prev.Pos.Line > cur.Pos.Line) {
			t.Errorf("findings out of order: %s:%d before %s:%d",
				prev.Pos.Filename, prev.Pos.Line, cur.Pos.Filename, cur.Pos.Line)
		}
	}

	for _, d := range diags {
		if strings.HasPrefix(d.Pos.Filename, "suppress/") {
			continue
		}
		text := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(text) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d: %s", d.Pos.Filename, d.Pos.Line, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected finding at %s:%d matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// TestPR3SynthBugFlagged pins the acceptance criterion directly: the
// re-created PR-3 map-order planting bug in fixture synth must be flagged
// by mapiter.
func TestPR3SynthBugFlagged(t *testing.T) {
	_, diags := loadFixture(t)
	for _, d := range diags {
		if d.Analyzer == "mapiter" && d.Pos.Filename == "synth/synth.go" &&
			strings.Contains(d.Message, "PR-3 synth bug") {
			return
		}
	}
	t.Fatal("mapiter did not flag the PR-3 map-order planting bug in fixture synth")
}

// TestSuppressionDirectives checks the directive machinery on the suppress
// fixture package: valid standalone and trailing directives suppress their
// line, a missing reason and an unknown analyzer are malformed (and
// suppress nothing), and a directive matching no finding is reported stale.
func TestSuppressionDirectives(t *testing.T) {
	_, diags := loadFixture(t)
	var got []Diagnostic
	for _, d := range diags {
		if strings.HasPrefix(d.Pos.Filename, "suppress/") {
			got = append(got, d)
		}
	}

	type exp struct {
		line     int
		analyzer string
		substr   string
	}
	expected := []exp{
		{31, metaAnalyzer, "missing its mandatory reason"},
		{32, "errwrap", "loses its wrap chain"},
		{37, metaAnalyzer, `unknown analyzer "nosuchlint"`},
		{38, "errwrap", "loses its wrap chain"},
		{43, metaAnalyzer, "matches no finding"},
		// An unknown analyzer anywhere in a multi-name list voids the
		// whole directive, so the errwrap finding it would have covered
		// surfaces alongside the malformed-directive error.
		{58, metaAnalyzer, `unknown analyzer "nosuchlint"`},
		{59, "errwrap", "loses its wrap chain"},
	}
	for _, e := range expected {
		found := false
		for _, d := range got {
			if d.Pos.Line == e.line && d.Analyzer == e.analyzer &&
				strings.Contains(d.Message, e.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing expected diagnostic at suppress/suppress.go:%d [%s] ~%q", e.line, e.analyzer, e.substr)
		}
	}
	// The well-formed directives on lines 19, 25, and 50 must have
	// suppressed the errwrap findings on lines 20, 25, and 51 — line 50's
	// directive names two analyzers and only errwrap fires, which still
	// marks it used rather than stale.
	for _, d := range got {
		if d.Analyzer == "errwrap" && (d.Pos.Line == 20 || d.Pos.Line == 25 || d.Pos.Line == 51) {
			t.Errorf("directive failed to suppress finding at suppress/suppress.go:%d: %s", d.Pos.Line, d.Message)
		}
	}
	if len(got) != len(expected) {
		var lines []string
		for _, d := range got {
			lines = append(lines, d.String())
		}
		t.Errorf("suppress package: got %d diagnostics, want %d:\n%s", len(got), len(expected), strings.Join(lines, "\n"))
	}
}

// TestListOutput checks that -list rendering is sorted by analyzer name
// and byte-stable across renders.
func TestListOutput(t *testing.T) {
	var a, b bytes.Buffer
	WriteList(&a)
	WriteList(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteList output is not byte-stable across renders")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != len(Analyzers()) {
		t.Fatalf("WriteList rendered %d lines, want one per analyzer (%d)", len(lines), len(Analyzers()))
	}
	var names []string
	for _, line := range lines {
		names = append(names, strings.Fields(line)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("WriteList analyzers are not sorted by name: %v", names)
	}
}

// repoRun loads the repository module once for the tests that inspect it.
var repoRun struct {
	once sync.Once
	prog *Program
	err  error
}

func loadRepo(t *testing.T) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	repoRun.once.Do(func() {
		prog, err := Load("../..", "./...")
		if err == nil && len(prog.LoadErrors) > 0 {
			err = fmt.Errorf("repository load errors:\n%s", strings.Join(prog.LoadErrors, "\n"))
		}
		repoRun.prog, repoRun.err = prog, err
	})
	if repoRun.err != nil {
		t.Fatalf("loading repository module: %v", repoRun.err)
	}
	return repoRun.prog
}

// TestRepoLintClean is the dogfood gate: the repository itself must lint
// clean with the full registry, including the unused-suppression check.
func TestRepoLintClean(t *testing.T) {
	prog := loadRepo(t)
	runner := &Runner{Analyzers: Analyzers()}
	for _, d := range runner.Run(prog) {
		t.Errorf("repository finding: %s", d)
	}
}

// TestLoadAnalyzesEachFileOnce checks that no source file belongs to two
// loaded packages. go list also reports each dependency recompiled for
// another package's test ("exec [index.test]"); loading those copies
// would report every finding in them once per copy.
func TestLoadAnalyzesEachFileOnce(t *testing.T) {
	prog := loadRepo(t)
	owner := map[string]string{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if prev, dup := owner[name]; dup {
				t.Errorf("%s is loaded by both %q and %q", relModule(prog, name), prev, pkg.ImportPath)
			}
			owner[name] = pkg.ImportPath
		}
	}
}

func TestSegment(t *testing.T) {
	cases := []struct {
		path, want string
	}{
		{"repro/internal/synth", "synth"},
		{"repro/internal/shard_test", "shard"},
		{"fixture/exec", "exec"},
		{"single", "single"},
	}
	for _, c := range cases {
		p := &Package{PkgPath: c.path}
		if got := p.Segment(); got != c.want {
			t.Errorf("Segment(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}
