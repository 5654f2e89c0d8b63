package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseTreeYAML(t *testing.T) {
	src := `
# leading comment
name: demo
count: 3
rate: 1.5  # trailing comment
flag: true
empty: null
quoted: "a: b # c"
single: 'it''s'
list:
  - 1
  - two
  - from: 1d
    to: 2d
flow_seq: [1, 2.5, x]
flow_map: {from: 12h, to: "36h"}
flow_items:
  - {kind: churn, joins: 40}
  - [a, b]
nested:
  inner:
    deep: ok
# Scalars that need quoting to stay strings: a colon, a comment
# marker, number, bool and null look-alikes, quotes, and dashes.
colon: "with: colon"
hash: "hash # inside"
number_alike: "3.14"
bool_alike: "true"
null_alike: "null"
apostrophe: "it's quoted"
double_quotes: "she said \"hi\""
single_quotes: 'she said "hi"'
bare_dash: "-"
leading_dash: "- leading dash"
spaced: a b c
names:
  - name: "- leading dash"
  - name: "with: colon"
    phase: "3.14"
`
	got, err := parseTree([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]any{
		"name":   "demo",
		"count":  json.Number("3"),
		"rate":   json.Number("1.5"),
		"flag":   true,
		"empty":  nil,
		"quoted": "a: b # c",
		"single": "it's",
		"list": []any{
			json.Number("1"),
			"two",
			map[string]any{"from": "1d", "to": "2d"},
		},
		"flow_seq": []any{json.Number("1"), json.Number("2.5"), "x"},
		"flow_map": map[string]any{"from": "12h", "to": "36h"},
		"flow_items": []any{
			map[string]any{"kind": "churn", "joins": json.Number("40")},
			[]any{"a", "b"},
		},
		"nested": map[string]any{"inner": map[string]any{"deep": "ok"}},

		"colon":         "with: colon",
		"hash":          "hash # inside",
		"number_alike":  "3.14",
		"bool_alike":    "true",
		"null_alike":    "null",
		"apostrophe":    "it's quoted",
		"double_quotes": `she said "hi"`,
		"single_quotes": `she said "hi"`,
		"bare_dash":     "-",
		"leading_dash":  "- leading dash",
		"spaced":        "a b c",
		"names": []any{
			map[string]any{"name": "- leading dash"},
			map[string]any{"name": "with: colon", "phase": "3.14"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tree mismatch:\n got: %#v\nwant: %#v", got, want)
	}
}

func TestParseTreeJSON(t *testing.T) {
	src := `{"name": "demo", "base": {"days": 3}, "phases": [{"from": "1d"}]}`
	got, err := parseTree([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]any{
		"name":   "demo",
		"base":   map[string]any{"days": json.Number("3")},
		"phases": []any{map[string]any{"from": "1d"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tree mismatch:\n got: %#v\nwant: %#v", got, want)
	}
}

// TestParseTreeErrors pins the parser's strictness: everything outside
// the supported subset is an error naming the offending line, never a
// silent misread.
func TestParseTreeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab indent", "a:\n\tb: 1", "tab in indentation"},
		{"duplicate key", "a: 1\na: 2", "duplicate key"},
		{"bad indent", "a: 1\n   stray: 2", "unexpected indent"},
		{"not a mapping entry", "a: 1\njust words", "expected \"key: value\""},
		{"unterminated flow seq", "a: [1, 2", "unterminated flow sequence"},
		{"unterminated flow map", "a: {x: 1", "unterminated flow mapping"},
		{"unbalanced quotes", "a: [\"x]", "unbalanced flow value"},
		{"empty flow element", "a: [1, , 2]", "empty element"},
		{"bad quoted string", `a: "unclosed`, "bad quoted string"},
		{"unterminated single quote", "a: 'unclosed", "unterminated single-quoted"},
		{"empty document", "# only comments\n", "empty document"},
		{"bad json", "{broken", "parse JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTree([]byte(tc.src))
			if err == nil {
				t.Fatalf("parsed %q without error", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"36h", "36h0m0s", true},
		{"2d", "48h0m0s", true},
		{"1d12h", "36h0m0s", true},
		{"90m", "1h30m0s", true},
		{"0s", "0s", true},
		{"d", "", false},
		{"2dd", "", false},
		{"", "", false},
		{"1w", "", false},
	}
	for _, tc := range cases {
		got, err := ParseDuration(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseDuration(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got.String() != tc.want {
			t.Errorf("ParseDuration(%q) = %v, want %s", tc.in, got, tc.want)
		}
	}
}

// jsonSpec is a spec in the JSON form Parse accepts.
const jsonSpec = `{
  "name": "demo",
  "checkpoint": "12h",
  "base": {"days": 3},
  "phases": [
    {"name": "p", "from": "1d", "to": "2d",
     "modulators": [{"kind": "premiere", "hotness": 3}]}
  ]
}`

// TestParseJSONSpec proves the JSON front door reaches the same File as
// the YAML one.
func TestParseJSONSpec(t *testing.T) {
	yamlSrc := `
name: demo
checkpoint: 12h
base:
  days: 3
phases:
  - name: p
    from: 1d
    to: 2d
    modulators:
      - kind: premiere
        hotness: 3
`
	fy, err := Parse([]byte(yamlSrc))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	fj, err := Parse([]byte(jsonSpec))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if !reflect.DeepEqual(fy, fj) {
		t.Fatalf("YAML and JSON forms decode differently:\nyaml: %+v\njson: %+v", fy, fj)
	}
}
