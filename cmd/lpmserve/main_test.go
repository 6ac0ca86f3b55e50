package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
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

// TestFlagsAreTheNineDocumented: registerFlags is the only list of lpmserve's
// flags. The usage block of the package comment names exactly that set, and
// every `lpmserve -x` a doc, the Makefile, CI or the verify skill spells is in
// it — a deleted flag fails here until the docs stop recommending it.
func TestFlagsAreTheNineDocumented(t *testing.T) {
	fs := flag.NewFlagSet("lpmserve", flag.ContinueOnError)
	registerFlags(fs)
	registered := map[string]bool{}
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		names = append(names, f.Name)
	})
	if len(names) != 9 {
		t.Errorf("lpmserve registers %d flags, want 9: %v", len(names), names)
	}

	src := readRepoFile(t, "cmd/lpmserve/main.go")
	start := strings.Index(src, "// Usage:\n")
	end := strings.Index(src, "// -wire-addr is")
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

// endpointLine is one line of the package comment's Endpoints block.
var endpointLine = regexp.MustCompile(`^//\s+GET (/[^\s?]*)`)

// TestEndpointsAreTheMux holds the package comment's Endpoints block to the
// mux lpmserve serves: every documented path is routed (an answer other than
// 404), and /batch, /update, /slo, /debug/hotness and /debug/vars are not —
// lookups in bulk and rule updates travel over the wire, a latency window is
// the difference of two /metrics scrapes, and /metrics is the registry's one
// rendering. A route removed without its doc line, or one of those five put
// back, fails here.
func TestEndpointsAreTheMux(t *testing.T) {
	src := readRepoFile(t, "cmd/lpmserve/main.go")
	start := strings.Index(src, "// Endpoints")
	if start < 0 {
		t.Fatal("main.go's package comment has no Endpoints block")
	}
	var paths []string
	for _, line := range strings.Split(src[start:], "\n")[1:] {
		if line == "//" && len(paths) > 0 {
			break
		}
		if m := endpointLine.FindStringSubmatch(line); m != nil {
			paths = append(paths, strings.TrimSuffix(m[1], "..."))
		}
	}
	if len(paths) < 5 {
		t.Fatalf("Endpoints block lists %d paths: %v", len(paths), paths)
	}

	rs, err := lpm.NewRuleSet(32, []lpm.Rule{{Prefix: keys.FromUint64(0x0a000000), Len: 8, Action: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.BuildUpdatable(rs, core.Config{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	h := serve.NewSharded(sh, telemetry.NewRegistry()).Handler()
	status := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, p := range paths {
		if code := status(p); code == http.StatusNotFound {
			t.Errorf("documented endpoint %s answers 404", p)
		}
	}
	for _, p := range []string{"/batch", "/update", "/slo", "/debug/hotness", "/debug/vars"} {
		if code := status(p); code != http.StatusNotFound {
			t.Errorf("%s answers %d, want 404: lookups and updates travel over the wire, and windows and the registry are read from /metrics", p, code)
		}
	}
}
