package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// refWriteXML is the fmt- and encoding/xml-based writer the append-style
// one replaced, kept as the oracle FuzzXMLString checks it against, with
// the writer's indentation cap of maxIndentDepth levels.
func refWriteXML(w io.Writer, n *Node, depth int, indent bool) error {
	pad, nl := "", ""
	if indent {
		pad = strings.Repeat("  ", min(depth, maxIndentDepth))
		nl = "\n"
	}
	if n.Kind == Text {
		var b strings.Builder
		if err := xml.EscapeText(&b, []byte(n.Text)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s%s%s", pad, b.String(), nl)
		return err
	}
	var attrs strings.Builder
	for _, a := range n.Attrs {
		attrs.WriteByte(' ')
		attrs.WriteString(a.Name)
		attrs.WriteString(`="`)
		_ = xml.EscapeText(&attrs, []byte(a.Value))
		attrs.WriteByte('"')
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s%s/>%s", pad, n.Tag, attrs.String(), nl)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>%s", pad, n.Tag, attrs.String(), nl); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := refWriteXML(w, c, depth+1, indent); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>%s", pad, n.Tag, nl)
	return err
}

// checkAgainstRef fails unless both indent modes of WriteXML, and
// XMLString, match the reference writer byte for byte, and AppendXML onto
// a non-empty dst keeps the prefix and appends exactly those bytes.
func checkAgainstRef(t *testing.T, root *Node) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		var got, want bytes.Buffer
		if err := WriteXML(&got, root, indent); err != nil {
			t.Fatal(err)
		}
		if err := refWriteXML(&want, root, 0, indent); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("indent=%v:\n got %q\nwant %q", indent, got.Bytes(), want.Bytes())
		}
		if indent && XMLString(root) != want.String() {
			t.Fatalf("XMLString differs from WriteXML:\n got %q\nwant %q", XMLString(root), want.String())
		}
		const prefix = "<prefix/>"
		dst := make([]byte, len(prefix), len(prefix)+1)
		copy(dst, prefix)
		appended := AppendXML(dst, root, indent)
		if string(appended[:len(prefix)]) != prefix || !bytes.Equal(appended[len(prefix):], want.Bytes()) {
			t.Fatalf("indent=%v: AppendXML onto %q = %q, want the prefix and %q", indent, prefix, appended, want.Bytes())
		}
	}
}

// FuzzXMLString checks the writer against the reference on trees built
// from arbitrary tag, attribute and text bytes — control characters,
// &<>"', non-ASCII and invalid UTF-8 included — and, when doc parses,
// that its serialization parses back and is a fixed point from then on.
func FuzzXMLString(f *testing.F) {
	f.Add("a", "id", `x<y&"z"'`, "1 < 2 & 3 > 0", `<a b="1"><c>text</c><d/></a>`)
	f.Add("t\x01", "k\x7f", "\x00\t\n\r\x1f", "caf\xc3\xa9 \xff\xfe", "<r>fish &amp; chips<!--c-->more</r>")
	f.Add("", "", "", "", `<x:a xmlns:x="u" y:b="&#xD;&#9;"><![CDATA[<raw>]]></x:a><b/>`)
	// One seed per byte class the fast path must hand to EscapeText, each
	// alone in its string.
	for _, c := range []string{"'", `"`, "&", "<", ">", "\x01", "\t", "\n", "\r", "é", "\xff", "\x7f"} {
		f.Add("a", "k", "v"+c, "t"+c+"t", "<a>x</a>")
	}
	// Nesting past the indentation cap.
	f.Add("a", "k", "v", "t", strings.Repeat("<d>", maxIndentDepth+8)+"x"+strings.Repeat("</d>", maxIndentDepth+8))
	f.Fuzz(func(t *testing.T, tag, attr, val, text, doc string) {
		root := NewElement(tag)
		root.SetAttr(attr, val)
		child := NewElement(text)
		child.AppendChild(NewText(text))
		root.AppendChild(NewText(val))
		root.AppendChild(child)
		root.AppendChild(NewElement(attr))
		Number(root)
		checkAgainstRef(t, root)

		parsed, err := ParseString(doc)
		if err != nil {
			return
		}
		checkAgainstRef(t, parsed)
		// Adjacent text nodes merge on the first reparse, so the fixed
		// point starts at the second serialization.
		once, err := ParseString(XMLString(parsed))
		if err != nil {
			t.Fatalf("serialization of a parsed document does not parse: %v\n%s", err, XMLString(parsed))
		}
		s := XMLString(once)
		twice, err := ParseString(s)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, s)
		}
		if !structurallyEqual(once, twice) || XMLString(twice) != s {
			t.Fatalf("serialize/parse is not a fixed point:\n%s\nvs\n%s", s, XMLString(twice))
		}
	})
}
