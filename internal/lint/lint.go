// Package lint is tixlint's engine: a standard-library-only static
// analysis suite over go/ast and go/types that mechanically enforces the
// project invariants previous PRs established by convention —
// deterministic iteration in packages whose output must replay
// bit-for-bit, exec.Guard consultation on every storage-access loop,
// errors.Is-compatible error handling, and context hygiene.
//
// The motivating case study is the PR-3 synth bug: control terms were
// planted in map-iteration order, consuming the seeded RNG
// run-dependently, and only a byte-identical golden test caught it. The
// mapiter analyzer turns that lucky catch into a mechanical one.
//
// Findings can be suppressed per line with a justified directive:
//
//	//tixlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or alone on the line above it. The reason
// is mandatory, unknown analyzer names are rejected, and directives that
// suppress nothing are themselves reported, so suppressions cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Severity classifies a finding. tixlint exits nonzero on any finding,
// whatever its severity.
type Severity int

const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityError
)

// String returns the lowercase name used in text output.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Severity Severity
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Severity, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects a single package and reports
// findings through the pass — unless ProgramScope is set, in which case
// Run is invoked exactly once with a package-less pass and walks
// prog.Pkgs itself (cross-package graphs: lock ordering, metric-name
// ownership).
type Analyzer struct {
	Name         string
	Doc          string
	Run          func(*Pass)
	ProgramScope bool
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	diags    *[]Diagnostic
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// Filename returns the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Prog.Fset.Position(pos).Filename
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, sev Severity, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Severity: sev,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full registry sorted by name, so -list output is
// byte-stable across builds.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		MapIter, GuardCheck, ErrWrap, CtxHygiene, NoDeterm, SleepHygiene,
		LockOrder, AtomicHygiene, CacheKey, AliasRet, GoroLeak, MetricReg,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// WriteList renders the registry one analyzer per line, sorted by name,
// so `tixlint -list` output is byte-stable across builds.
func WriteList(w io.Writer) {
	for _, a := range Analyzers() {
		fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
	}
}

// metaAnalyzer names the pseudo-analyzer that reports problems with
// suppression directives themselves.
const metaAnalyzer = "tixlint"

// Runner executes a set of analyzers over a loaded program.
type Runner struct {
	// Analyzers is the set to run: the full registry, Analyzers(). A
	// suppression directive that matches no finding is reported stale, so
	// a directive naming an analyzer left out of the set would be too.
	Analyzers []*Analyzer
}

// Run executes every analyzer over every package, applies suppression
// directives, and returns the surviving diagnostics — plus one finding
// per malformed or stale directive — sorted by position. File paths are
// reported relative to the module root.
func (r *Runner) Run(prog *Program) []Diagnostic {
	known := map[string]bool{metaAnalyzer: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var raw []Diagnostic
	for _, a := range r.Analyzers {
		if a.ProgramScope {
			a.Run(&Pass{Analyzer: a, Prog: prog, diags: &raw})
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, a := range r.Analyzers {
			if !a.ProgramScope {
				a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &raw})
			}
		}
	}

	dirs := collectDirectives(prog, known)
	var out []Diagnostic
	for _, d := range raw {
		if !suppress(dirs, d) {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if dir.malformed != "" {
			out = append(out, Diagnostic{
				Analyzer: metaAnalyzer,
				Severity: SeverityError,
				Pos:      prog.Fset.Position(dir.pos),
				Message:  dir.malformed,
			})
		} else if !dir.used {
			out = append(out, Diagnostic{
				Analyzer: metaAnalyzer,
				Severity: SeverityWarning,
				Pos:      prog.Fset.Position(dir.pos),
				Message:  fmt.Sprintf("suppression for %s matches no finding; delete the stale directive", strings.Join(dir.names, ",")),
			})
		}
	}

	for i := range out {
		out[i].Pos.Filename = relModule(prog, out[i].Pos.Filename)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// relModule rewrites an absolute filename relative to the module root
// (slash-separated); paths outside the module pass through unchanged.
func relModule(prog *Program, filename string) string {
	if rel, err := filepath.Rel(prog.ModuleDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}
