package lint

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
)

// TestParseDirective pins the directive grammar edge cases at the unit
// level: multi-analyzer lists, unknown names in any list position, the
// mandatory reason, and prefix strictness.
func TestParseDirective(t *testing.T) {
	known := map[string]bool{"errwrap": true, "mapiter": true, "guardcheck": true}
	cases := []struct {
		name      string
		text      string
		wantNames []string
		wantWhy   string
		malformed string // substring of the malformed message, "" = well-formed
	}{
		{
			name:      "single analyzer",
			text:      "//tixlint:ignore errwrap sentinel never travels wrapped",
			wantNames: []string{"errwrap"},
			wantWhy:   "sentinel never travels wrapped",
		},
		{
			name:      "multi analyzer list",
			text:      "//tixlint:ignore errwrap,mapiter one reason covers both analyzers",
			wantNames: []string{"errwrap", "mapiter"},
			wantWhy:   "one reason covers both analyzers",
		},
		{
			name:      "three-name list",
			text:      "//tixlint:ignore errwrap,mapiter,guardcheck shared justification",
			wantNames: []string{"errwrap", "mapiter", "guardcheck"},
			wantWhy:   "shared justification",
		},
		{
			name:      "unknown analyzer alone",
			text:      "//tixlint:ignore nosuch reason text",
			malformed: `unknown analyzer "nosuch"`,
		},
		{
			name:      "unknown analyzer mid-list",
			text:      "//tixlint:ignore errwrap,nosuch,mapiter reason text",
			malformed: `unknown analyzer "nosuch"`,
		},
		{
			name:      "unknown analyzer last in list",
			text:      "//tixlint:ignore errwrap,nosuch reason text",
			malformed: `unknown analyzer "nosuch"`,
		},
		{
			name:      "missing reason single",
			text:      "//tixlint:ignore errwrap",
			malformed: "missing its mandatory reason",
		},
		{
			name:      "missing reason multi",
			text:      "//tixlint:ignore errwrap,mapiter",
			malformed: "missing its mandatory reason",
		},
		{
			name:      "no analyzer at all",
			text:      "//tixlint:ignore",
			malformed: "names no analyzer",
		},
		{
			name:      "prefix must be followed by a separator",
			text:      "//tixlint:ignoreerrwrap reason",
			malformed: "malformed suppression",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirective(&ast.Comment{Text: c.text}, known)
			if c.malformed != "" {
				if d.malformed == "" || !strings.Contains(d.malformed, c.malformed) {
					t.Fatalf("parseDirective(%q).malformed = %q, want substring %q", c.text, d.malformed, c.malformed)
				}
				return
			}
			if d.malformed != "" {
				t.Fatalf("parseDirective(%q) unexpectedly malformed: %s", c.text, d.malformed)
			}
			if !reflect.DeepEqual(d.names, c.wantNames) {
				t.Errorf("names = %v, want %v", d.names, c.wantNames)
			}
			for _, name := range c.wantNames {
				if !d.analyzers[name] {
					t.Errorf("analyzer set is missing %q", name)
				}
			}
			if d.reason != c.wantWhy {
				t.Errorf("reason = %q, want %q", d.reason, c.wantWhy)
			}
		})
	}
}

// TestTargetLine pins the directive targeting rule: a directive sharing
// a line with code suppresses that line; a directive alone on a line
// suppresses the next code line below it; a directive below all code
// targets its own (necessarily finding-free) line.
func TestTargetLine(t *testing.T) {
	codeLines := []int{5, 10, 11}
	cases := []struct {
		line, want int
	}{
		{5, 5},   // trailing directive: same line
		{3, 5},   // standalone: next code line
		{10, 10}, // trailing on a dense run
		{6, 10},  // standalone between code lines
		{12, 12}, // below all code: targets itself
	}
	for _, c := range cases {
		if got := targetLine(codeLines, c.line); got != c.want {
			t.Errorf("targetLine(%v, %d) = %d, want %d", codeLines, c.line, got, c.want)
		}
	}
}
