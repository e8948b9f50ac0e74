package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Parse reads one XML document from r and returns its numbered tree. If the
// input contains multiple top-level elements (as reviews.xml in the paper's
// Fig. 1 does), they are wrapped under a synthetic root element named
// wrapper, mirroring what an XML database's document node would do.
//
// Character data is whitespace-trimmed; whitespace-only text nodes are
// dropped. Comments and processing instructions are ignored.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var roots []*Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) > 0 {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element </%s>", t.Name.Local)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				roots = append(roots, top)
			}
		case xml.CharData:
			if len(stack) == 0 {
				continue // ignore top-level whitespace
			}
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			stack[len(stack)-1].AppendChild(NewText(text))
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element <%s>", stack[len(stack)-1].Tag)
	}
	var root *Node
	switch len(roots) {
	case 0:
		return nil, fmt.Errorf("xmltree: parse: empty document")
	case 1:
		root = roots[0]
	default:
		root = NewElement("wrapper")
		for _, r := range roots {
			root.AppendChild(r)
		}
	}
	Number(root)
	return root, nil
}

// ParseString is Parse over an in-memory document.
//
// There is deliberately no panicking Must variant in this package: every
// production load path reports malformed XML as an error. Tests that parse
// literal documents keep small private helpers.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// WriteXML serializes the subtree rooted at n as XML to w, in one Write.
// Output is indented with two spaces per level when indent is true, up to
// maxIndentDepth levels.
func WriteXML(w io.Writer, n *Node, indent bool) error {
	var b bytes.Buffer
	appendXML(&b, n, 0, indent)
	_, err := w.Write(b.Bytes())
	return err
}

// XMLString serializes the subtree rooted at n to an indented string, as
// WriteXML does with indent set.
func XMLString(n *Node) string {
	var b bytes.Buffer
	appendXML(&b, n, 0, true)
	return b.String()
}

// maxIndentDepth caps indentation: a node deeper than this is padded as a
// node at this depth, so indented output stays linear in the input however
// deep the tree nests.
const maxIndentDepth = 32

var indentPad = strings.Repeat("  ", maxIndentDepth)

// appendXML writes each node on a line of its own when indenting: padded
// two spaces per level, up to maxIndentDepth levels, and ended by a
// newline.
func appendXML(b *bytes.Buffer, n *Node, depth int, indent bool) {
	pad := func() {
		if indent {
			b.WriteString(indentPad[:2*min(depth, maxIndentDepth)])
		}
	}
	pad()
	if n.Kind == Text {
		escapeText(b, n.Text)
	} else {
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			escapeText(b, a.Value)
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
		} else {
			b.WriteByte('>')
			if indent {
				b.WriteByte('\n')
			}
			for _, c := range n.Children {
				appendXML(b, c, depth+1, indent)
			}
			pad()
			b.WriteString("</")
			b.WriteString(n.Tag)
			b.WriteByte('>')
		}
	}
	if indent {
		b.WriteByte('\n')
	}
}

// escapeText writes s escaped as xml.EscapeText does. A string with no
// byte EscapeText could rewrite — a control character, non-ASCII, or one
// of &<>"' — is copied as it is.
func escapeText(b *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '&' || c == '<' || c == '>' || c == '"' || c == '\'' {
			_ = xml.EscapeText(b, []byte(s))
			return
		}
	}
	b.WriteString(s)
}
