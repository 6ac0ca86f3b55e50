package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citedDocs are the files that tell a reader how to start `lpmserve`.
var citedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CLAUDE.md", "Makefile",
	".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

var (
	// invocation is `lpmserve` (bare, or the tail of a path) followed by a flag.
	invocation = regexp.MustCompile(`lpmserve\s+(?:\\\n\s*)?\[?-[a-z]`)
	flagToken  = regexp.MustCompile(`^\[?-([a-z][a-z-]*)\]?[,.]?$`)
)

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// citedFlags returns every flag spelled after an `lpmserve` in text: the rest
// of the command line (backslash continuations joined), up to whatever ends a
// command in a shell or in prose.
func citedFlags(text string) []string {
	var out []string
	for _, loc := range invocation.FindAllStringIndex(text, -1) {
		rest := strings.ReplaceAll(text[loc[0]+len("lpmserve"):], "\\\n", " ")
		if end := strings.IndexAny(rest, "\n`&|;#)"); end >= 0 {
			rest = rest[:end]
		}
		for _, tok := range strings.Fields(rest) {
			if m := flagToken.FindStringSubmatch(tok); m != nil {
				out = append(out, m[1])
			}
		}
	}
	return out
}

// TestFlagsAreTheTwelveDocumented: registerFlags is the only list of lpmserve's
// flags. The usage block of the package comment names exactly that set, and
// every `lpmserve -x` a doc, the Makefile, CI or the verify skill spells is in
// it — a deleted flag fails here until the docs stop recommending it.
func TestFlagsAreTheTwelveDocumented(t *testing.T) {
	fs := flag.NewFlagSet("lpmserve", flag.ContinueOnError)
	registerFlags(fs)
	registered := map[string]bool{}
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		names = append(names, f.Name)
	})
	if len(names) != 12 {
		t.Errorf("lpmserve registers %d flags, want 12: %v", len(names), names)
	}

	src := readRepoFile(t, "cmd/lpmserve/main.go")
	start := strings.Index(src, "// Usage:\n")
	end := strings.Index(src, "// -wire-addr additionally")
	if start < 0 || end < start {
		t.Fatal("main.go's package comment has no usage block followed by the -wire-addr paragraph")
	}
	usage := citedFlags(strings.ReplaceAll(src[start:end], "\n//", " "))
	sort.Strings(usage)
	if got, want := strings.Join(usage, " "), strings.Join(names, " "); got != want {
		t.Errorf("usage block names %q, registered flags are %q", got, want)
	}

	registered["h"], registered["help"] = true, true // the flag package's own
	for _, doc := range citedDocs {
		for _, name := range citedFlags(readRepoFile(t, doc)) {
			if !registered[name] {
				t.Errorf("%s spells `lpmserve -%s`, which is not a registered flag", doc, name)
			}
		}
	}
}
