package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The spec format is YAML authored by hand, but the module deliberately
// has no third-party dependencies, so this file implements the strict
// subset of YAML the scenario grammar needs — block mappings and
// sequences by indentation, flow sequences/mappings for short inline
// values, comments, and scalars (null, bool, number, plain and quoted
// strings). Everything outside the subset is a parse error with a line
// number, never a silent misread. JSON documents are accepted too: a
// document whose first byte is '{' parses with encoding/json into the
// same generic tree, so machine-generated specs need no YAML emitter.
//
// The generic tree uses nil | bool | string | json.Number | []any |
// map[string]any; the strict decoder in decode.go turns it into a File.

// yamlLine is one non-blank source line with its comment stripped.
type yamlLine struct {
	num    int // 1-based line number
	indent int
	text   string
}

// parseTree parses a YAML or JSON document into the generic tree.
func parseTree(data []byte) (any, error) {
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "{") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("spec: parse JSON: %w", err)
		}
		return v, nil
	}
	lines, err := splitLines(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("spec: empty document")
	}
	p := &yamlParser{lines: lines}
	v, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("spec: line %d: unexpected content %q after document", l.num, l.text)
	}
	return v, nil
}

// splitLines preprocesses the source: drops blanks and comments, records
// indentation, and rejects tabs in indentation (classic YAML trap).
func splitLines(src string) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \r")
		if strings.HasPrefix(strings.TrimLeft(line, " "), "---") {
			continue // document separator
		}
		stripped := stripComment(line)
		body := strings.TrimLeft(stripped, " ")
		if body == "" {
			continue
		}
		indent := len(stripped) - len(body)
		if strings.ContainsRune(stripped[:indent], '\t') || strings.HasPrefix(body, "\t") {
			return nil, fmt.Errorf("spec: line %d: tab in indentation (use spaces)", i+1)
		}
		out = append(out, yamlLine{num: i + 1, indent: indent, text: body})
	}
	return out, nil
}

// stripComment removes a trailing comment: a '#' at line start or
// preceded by whitespace, outside single or double quotes.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return strings.TrimRight(s[:i], " ")
		}
	}
	return s
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseBlock parses the mapping, sequence, or scalar starting at the
// current line, which must be indented at least minIndent.
func (p *yamlParser) parseBlock(minIndent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, nil
	}
	l := p.lines[p.pos]
	if l.indent < minIndent {
		return nil, nil
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseSequence(l.indent)
	}
	// A flow value opening the line ("- {kind: churn, joins: 40}" after
	// sequence re-anchoring) — before the mapping check, which would
	// split it at the first colon.
	if l.text[0] == '{' || l.text[0] == '[' {
		p.pos++
		return inlineValue(l.text, l.num)
	}
	if keyLen := mappingKeyLen(l.text); keyLen >= 0 {
		return p.parseMapping(l.indent)
	}
	// A lone scalar block (only valid as a sequence item's body).
	p.pos++
	return scalarValue(l.text, l.num)
}

// mappingKeyLen returns the length of the mapping key ending the "key:"
// prefix of s, or -1 if s is not a mapping entry. A colon introduces a
// mapping only at end of line or when followed by a space ("12:30" is a
// scalar).
func mappingKeyLen(s string) int {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == ':' && (i+1 == len(s) || s[i+1] == ' '):
			return i
		}
	}
	return -1
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("spec: line %d: unexpected indent", l.num)
		}
		keyLen := mappingKeyLen(l.text)
		if keyLen < 0 {
			return nil, fmt.Errorf("spec: line %d: expected \"key: value\", got %q", l.num, l.text)
		}
		key, err := unquoteKey(l.text[:keyLen], l.num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("spec: line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimLeft(l.text[keyLen+1:], " ")
		p.pos++
		if rest != "" {
			v, err := inlineValue(rest, l.num)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		v, err := p.parseBlock(indent + 1)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	items := []any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || (l.text != "-" && !strings.HasPrefix(l.text, "- ")) {
			if l.indent > indent {
				return nil, fmt.Errorf("spec: line %d: unexpected indent", l.num)
			}
			break
		}
		if l.text == "-" {
			p.pos++
			item, err := p.parseBlock(indent + 1)
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			continue
		}
		// Inline item body: re-anchor the line at the body's own column
		// so "- key: v" parses as a mapping continued by deeper lines.
		body := strings.TrimLeft(l.text[1:], " ")
		bodyIndent := indent + (len(l.text) - len(body))
		p.lines[p.pos] = yamlLine{num: l.num, indent: bodyIndent, text: body}
		item, err := p.parseBlock(bodyIndent)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// inlineValue parses the value part of "key: value": a flow sequence,
// flow mapping, or scalar.
func inlineValue(s string, num int) (any, error) {
	switch {
	case strings.HasPrefix(s, "["):
		return flowSequence(s, num)
	case strings.HasPrefix(s, "{"):
		return flowMapping(s, num)
	default:
		return scalarValue(s, num)
	}
}

func flowSequence(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("spec: line %d: unterminated flow sequence %q", num, s)
	}
	items := []any{}
	parts, err := splitFlow(s[1:len(s)-1], num)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		v, err := inlineValue(part, num)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	return items, nil
}

func flowMapping(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("spec: line %d: unterminated flow mapping %q", num, s)
	}
	m := map[string]any{}
	parts, err := splitFlow(s[1:len(s)-1], num)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		keyLen := mappingKeyLen(part)
		if keyLen < 0 {
			return nil, fmt.Errorf("spec: line %d: expected \"key: value\" in flow mapping, got %q", num, part)
		}
		key, err := unquoteKey(part[:keyLen], num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("spec: line %d: duplicate key %q", num, key)
		}
		v, err := inlineValue(strings.TrimLeft(part[keyLen+1:], " "), num)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

// splitFlow splits a flow body on top-level commas, respecting quotes
// and nested brackets. Empty bodies yield no parts.
func splitFlow(s string, num int) ([]string, error) {
	var parts []string
	var depth int
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if quote != 0 || depth != 0 {
		return nil, fmt.Errorf("spec: line %d: unbalanced flow value %q", num, s)
	}
	if last := strings.TrimSpace(s[start:]); last != "" || len(parts) > 0 {
		parts = append(parts, last)
	}
	for _, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("spec: line %d: empty element in flow value %q", num, s)
		}
	}
	return parts, nil
}

func numberPattern(s string) bool {
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// scalarValue types a plain or quoted scalar.
func scalarValue(s string, num int) (any, error) {
	switch {
	case s == "" || s == "~" || s == "null":
		return nil, nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case strings.HasPrefix(s, "\""):
		v, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("spec: line %d: bad quoted string %s: %v", num, s, err)
		}
		return v, nil
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, fmt.Errorf("spec: line %d: unterminated single-quoted string %s", num, s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	case numberPattern(s):
		return json.Number(s), nil
	default:
		return s, nil
	}
}

// unquoteKey resolves a mapping key, which may be plain or quoted.
func unquoteKey(s string, num int) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("spec: line %d: empty mapping key", num)
	}
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		v, err := scalarValue(s, num)
		if err != nil {
			return "", err
		}
		key, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("spec: line %d: bad mapping key %q", num, s)
		}
		return key, nil
	}
	return s, nil
}
